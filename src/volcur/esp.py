"""Elementary symmetric polynomials of spectra.

Coefficient vectors are 0-indexed: coeffs[j] = e_j, with e_0 = 1 and
e_j = 0 for j beyond the number of entries.  All recursions here add
nonnegative terms only, so there is no cancellation; accuracy is limited
by plain rounding.

Every ESP of the package is computed here and carried as a pair
(mantissas, exponents), e_j = mantissa * 2^exponent, so values far outside
double range keep full precision.  Plain spectra run one prefix recursion
(_prefix_rows), scaled and rescaled by exact powers of two only, so an
integer spectrum whose ESPs fit 53 bits comes out exact; dyadic spectra
multiply per-piece binomial coefficients.  The recursion is a blocked scan
that reads the spectrum one chunk of 16 x 4096 entries at a time and runs
every order over it before the next, so whatever n it holds three
chunk-sized arrays, and a generated spectrum only the chunk being read
(2.2 MB traced at n = 10^6 and at 4 * 10^6).  Past its first chunk, a
long spectrum is scanned only to the order its tail can still change
(_esp_coeffs): by Maclaurin's inequality e_a(tail) <= (tail sum)^a / a!,
so the terms left out are certified below 2^-64 of the result, and the
head and the tail are joined by the union rule f(concat(x, y)) =
f(x) * f(y) (_cauchy).  At n = 10^6 and order 65 the tail needs order 8,
a fifth of the cells.  esp_marginals, which keeps every prefix, scans
every order.

Ratios (esp_ratios) and the sampler's marginals (esp_marginals) are
quotients of such values, so they are scale free; only esp_all and
esp_scale, which return plain doubles, can overflow or underflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceededError,
    NumericalError,
    RankDeficiencyError,
    ValidationError,
    checked_int,
)
from .spectra import _CHUNK, DENSE_CAP, HeadTailSplit, PiecewiseDyadicSpectrum, Spectrum

__all__ = [
    "EspVector",
    "esp_all",
    "esp_ratio",
    "esp_ratios",
    "esp_marginals",
    "esp_geometric_closed_form",
    "esp_geometric_ratio",
    "esp_convolve",
    "esp_scale",
    "esp_ratio_head_tail",
    "esp_dyadic_convolution",
]

_CENTER, _SLACK = 512, 256         # prefix rows: running total within 2^(512 +- 256)
_LANES = 4096                      # prefix rows: lanes of the blocked scan, by timing


@dataclass(frozen=True, eq=False)
class EspVector:
    """Truncated vector of elementary symmetric polynomial values."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("coefficient vector must be 1-D and nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("coefficients must be finite")
        if arr[0] != 1.0:
            raise ValidationError("e_0 must equal 1")
        if np.any(arr < 0.0):
            raise ValidationError("coefficients must be nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def m(self) -> int:
        """Truncation order: coefficients cover e_0 .. e_m."""
        return int(self.coeffs.size - 1)

    def __len__(self) -> int:
        return int(self.coeffs.size)

    def __getitem__(self, j: int) -> float:
        return float(self.coeffs[j])


def _prefix_rows(spec: Spectrum, m: int):
    """Yield (j, lo, block, exponent): prefix row e_j of spec over one chunk.

    The scan runs on x = values / 2^u, 2^u <= values[0] < 2^(u+1) (the
    module's one scale, exact), and folds j*u into the exponents.  It reads
    the values by spec._chunk, and all orders j = 0..min(m, n) run over the
    chunk of at most _CHUNK entries starting at lo before the next chunk,
    laid out zero-padded as a C-contiguous (depth, lanes) array with
    x[lo + b*depth + t] at [t, b]:
    block[t, b] * 2**exponent = e_j(values[:lo + b*depth + t + 1]), and
    padding holds the running total block[-1, -1].  Row j is the prefix
    sum of x times row j-1 shifted by one: the products, the per-lane
    totals, their exclusive prefix sum plus the order's carry (e_j of the
    prefix before the chunk, which also leads the products of order j+1)
    as lane carries, then one vector add of length lanes per depth step.
    Rounding error grows with depth + lanes + chunks, not with n as in a
    serial cumsum; with n <= _LANES each row is that cumsum bit for bit.
    Rows alternate between two chunk buffers, so a block is only valid
    until the next one is requested.

    A row whose running total leaves 2^(512 +- 256) is rescaled by an exact
    power of two, so values round as in the unscaled recursion wherever
    that one stays in double range.  The window sits high: a row grows by
    at most a factor 2n per step but can shrink by any factor.  Each chunk
    decides its own, so an order's exponent can change by chunk.
    """
    n = spec.n
    carry = [2.0**_CENTER] + [0.0] * min(m, n)   # e_j of the prefix before the chunk,
    exps = [-_CENTER] * len(carry)               # as carry[j] * 2**exps[j], of x
    for lo in range(0, max(n, 1), _CHUNK):
        chunk = spec._chunk(lo, lo + _CHUNK)
        depth = max(-(-chunk.size // _LANES), 1)
        lanes = max(-(-chunk.size // depth), 1)
        if not lo:                     # the first chunk leads, and is the largest
            u = math.frexp(chunk[0])[1] - 1 if n and chunk[0] > 0.0 else 0   # x[0] in [1, 2)
            bufs = np.empty((3, depth * lanes))
        x, *rows = (buf[: depth * lanes].reshape(depth, lanes) for buf in bufs)
        steps = [list(zip(row[:-1], row[1:])) for row in rows]   # (row t-1, row t) views
        full, rest = divmod(chunk.size, depth)
        x.T[full:] = 0.0
        np.ldexp(chunk[: full * depth].reshape(full, depth), -u, out=x.T[:full])
        if rest:
            np.ldexp(chunk[full * depth :], -u, out=x.T[full, :rest])
        del chunk                      # laid out in x: a generated chunk is freed here
        out, exponent = rows[0], -_CENTER
        out.fill(2.0**_CENTER)
        yield 0, lo, out, exponent
        for j in range(1, len(carry)):
            row, out = out, rows[j % 2]
            np.multiply(x[1:], row[:-1], out=out[1:])
            np.multiply(x[0, 1:], row[-1, :-1], out=out[0, 1:])
            out[0, 0] = x[0, 0] * math.ldexp(carry[j - 1], exps[j - 1] - exponent)
            carry[j - 1], exps[j - 1] = float(row[-1, -1]), exponent
            out[0, 1:] += np.cumsum(out.sum(axis=0)[:-1])
            out[0] += math.ldexp(carry[j], exps[j] - exponent)
            for above, below in steps[j % 2]:
                np.add(below, above, out=below)
            shift = math.frexp(out[-1, -1])[1] - _CENTER
            if out[-1, -1] and abs(shift) > _SLACK:
                np.ldexp(out, -shift, out=out)
                exponent += shift
            yield j, lo, out, exponent + j * u
        carry[-1], exps[-1] = float(out[-1, -1]), exponent


def _scan_coeffs(spec: Spectrum, m: int) -> tuple[np.ndarray, np.ndarray]:
    """e_0..e_min(m, n) of a plain spectrum by one prefix scan, as (mantissas, exponents)."""
    last = np.zeros(min(m, spec.n) + 1)
    exps = np.zeros(last.size, dtype=np.int64)
    for j, _, block, exponent in _prefix_rows(spec, m):
        last[j], exps[j] = block[-1, -1], exponent
    mant, shift = np.frexp(last)
    return mant, np.where(mant > 0.0, exps + shift, 0)


def _tail_bound(spec: Spectrum) -> float:
    """An upper bound on the sum of spec's entries past its first chunk, from a few of them.

    Blocks [a, a + a // 16) each count as their first entry times their
    length, since the entries do not increase.  On a power law 1/i^p that
    is about p/32 above the sum, from about 16 ln(n / _CHUNK) entries.
    """
    total, a = 0.0, _CHUNK
    while a < spec.n:
        end = min(a + a // 16, spec.n)
        total += (end - a) * spec._entry(a)
        a = end
    return total


def _tail_order(head: tuple[np.ndarray, np.ndarray], total: float) -> int:
    """The least order A such that, at every order j of the pair head,

        sum_{a > A} e_{j-a}(head) total^a / a!  <=  2^-64 e_j(head).

    By Maclaurin's inequality e_a(y) <= e_1(y)^a / a!, the left side bounds
    what a tail y of sum at most total adds to e_j(concat(head, y)) past
    order A.  The sums run in log2, adding one order a per step from the top
    down, and are held to 2^-65: one bit to spare for the rounding of total
    and of the log2 terms.  A zero total gives 0; a positive one needs head
    positive at every order.
    """
    if not total:
        return 0
    mant, exps = head
    logs = np.log2(mant) + exps                      # log2 e_j(head)
    dropped = np.full(logs.size, -np.inf)            # log2 of the terms a' >= a, per j
    for a in range(logs.size - 1, 0, -1):
        term = a * math.log2(total) - math.lgamma(a + 1) / math.log(2)   # log2 total^a / a!
        np.logaddexp2(dropped[a:], logs[:-a] + term, out=dropped[a:])
        if np.any(dropped > logs - 65):
            return a
    return 0


def _esp_coeffs(spec: Spectrum, m: int) -> tuple[np.ndarray, np.ndarray]:
    """e_0..e_min(m, n) of a plain spectrum as (mantissas, exponents): e_j = mant * 2^exp.

    Past n = _CHUNK, if (m + 1)^2 <= _CHUNK, the first chunk (the head) is
    scanned to order m and the rest (the tail) only to the order A that
    _tail_order certifies for _tail_bound's bound on the tail's sum, and the
    two are joined by the union rule.  The terms left out are below
    2^-64 e_j(head) <= 2^-64 e_j, far under the scan's own rounding (about
    1e-14).  Every entry is still read, and checked, once.  The rule on m
    keeps _cauchy's (m + 1) x (A + 1) products within a chunk's size; above
    it, or up to n = _CHUNK, one scan runs to order m.
    """
    if spec.n <= _CHUNK or (m + 1) ** 2 > _CHUNK:
        return _scan_coeffs(spec, m)
    head = _scan_coeffs(spec._slice(0, _CHUNK), m)
    # _entry(_CHUNK) checks the tail's first entry against the head's last; a
    # positive tail follows _CHUNK > m positive entries, so head is positive to order m
    order = _tail_order(head, _tail_bound(spec))
    return _cauchy(head, _scan_coeffs(spec._slice(_CHUNK, spec.n), order), m)


def _piece_coeffs(count: int, value: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """f of one piece (count copies of value) to order m.

    coeffs[j] = value^j * C(count, j) by the multiplicative recurrence,
    each step split by frexp into (mantissas, exponents).
    """
    mant = np.ones(min(m, count) + 1)
    exps = np.zeros(mant.size, dtype=np.int64)
    for j in range(mant.size - 1):
        mant[j + 1], shift = math.frexp(mant[j] * value * (count - j) / (j + 1))
        exps[j + 1] = exps[j] + shift
    return mant, exps


def _cauchy(a, b, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Union rule f(concat(x, y)) = f(x) * f(y) on pairs, to order m or the last one reached.

    Each order sums its terms relative to its largest one, so only terms
    negligible next to that one can underflow.
    """
    (ma, ea), (mb, eb) = a, b
    size = min(m, ma.size + mb.size - 2) + 1
    order = np.add.outer(np.arange(ma.size), np.arange(mb.size))
    terms = np.outer(ma, mb)
    keep = (order < size) & (terms > 0.0)
    order, terms, exps = order[keep], terms[keep], np.add.outer(ea, eb)[keep]
    top = np.full(size, np.iinfo(np.int64).min)
    np.maximum.at(top, order, exps)
    total = np.bincount(order, weights=np.ldexp(terms, exps - top[order]), minlength=size)
    mant, shift = np.frexp(total)
    return mant, np.where(total > 0.0, top + shift, 0)


def _scaled_coeffs(spec: Spectrum | PiecewiseDyadicSpectrum, m: int):
    """e_0..e_min(m, n) as (mantissas, exponents): the prefix scan of a plain
    spectrum, or the product of a dyadic one's pieces, smallest values first."""
    if isinstance(spec, PiecewiseDyadicSpectrum):
        acc = (np.ones(1), np.zeros(1, dtype=np.int64))
        for _, count, value in reversed(spec.pieces):
            acc = _cauchy(acc, _piece_coeffs(count, value, m), m)
        return acc
    return _esp_coeffs(spec, m)


def _ratios(mant: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """e_{k+1}/e_k for every k below the last order of (mantissas, exponents)."""
    zero = np.flatnonzero(mant[:-1] == 0.0)
    if zero.size:
        raise RankDeficiencyError(f"e_{zero[0]} = 0: spectrum rank is below {zero[0]}")
    return np.ldexp(mant[1:] / mant[:-1], exps[1:] - exps[:-1])


def _esp_vector(mant: np.ndarray, exps: np.ndarray, m: int) -> EspVector:
    """e_0..e_m of a pair, zeros past its end; NumericalError outside double range."""
    coeffs = np.zeros(m + 1)
    with np.errstate(over="ignore"):
        np.ldexp(mant, exps, out=coeffs[: mant.size])
    if not np.all(np.isfinite(coeffs)):
        raise NumericalError(
            "ESP values overflow double precision at this scale; "
            "use esp_ratios, which is scale free")
    return EspVector(coeffs)


def _order(m: int) -> int:
    """A truncation order m, refused above DENSE_CAP before m + 1 entries are allocated."""
    m = checked_int(m, "truncation order m", 0)
    if m > DENSE_CAP:
        raise CapExceededError(f"truncation order m = {m} exceeds the dense-array cap {DENSE_CAP}")
    return m


def esp_all(s: Spectrum | PiecewiseDyadicSpectrum, m: int) -> EspVector:
    """All values e_0 .. e_m of the spectrum (zeros beyond its length)."""
    m = _order(m)
    return _esp_vector(*_scaled_coeffs(s, m), m)


def esp_ratios(spec: Spectrum | PiecewiseDyadicSpectrum, kmax: int) -> np.ndarray:
    """The ratios e_{k+1}/e_k for k = 0..kmax, of a plain or dyadic spectrum.

    The ratio is 0 at k equal to the rank; above it e_k = 0 and
    RankDeficiencyError is raised.
    """
    kmax = checked_int(kmax, "k", 0)
    mant, exps = _scaled_coeffs(spec, kmax + 1)
    pad = min(kmax + 2 - mant.size, 2)      # e_{n+1} = e_{n+2} = 0 close a pair ending at n
    return _ratios(np.pad(mant, (0, pad)), np.pad(exps, (0, pad)))


def esp_ratio(s: Spectrum | PiecewiseDyadicSpectrum, k: int) -> float:
    """The ratio e_{k+1}/e_k (see esp_ratios)."""
    return float(esp_ratios(s, k)[k])


def esp_marginals(spec: Spectrum, k: int) -> np.ndarray:
    """Inclusion probabilities for drawing k <= rank entries with weight prod(v).

    out[r, i] = v_i e_{r-1}(v_1..v_{i-1}) / e_r(v_1..v_i) for 1 <= r <= k
    and 1 <= i <= n, the chance that entry i joins when r of the first i
    entries remain to be chosen; zero where e_r(v_1..v_i) = 0.
    """
    k = checked_int(k, "k", 1, spec.n)
    table = np.zeros((k + 1, spec.n + 1))     # the ESP table, then the marginals in place
    table[0, 0] = 2.0**_CENTER         # e_0 of the empty prefix, scaled as row 0
    exps = np.zeros(k + 1, dtype=np.int64)
    for j, lo, block, exponent in _prefix_rows(spec, k):
        if exponent != exps[j]:        # earlier chunks of the order to this one's exponent
            np.ldexp(table[j, 1 : lo + 1], exps[j] - exponent, out=table[j, 1 : lo + 1])
        table[j, lo + 1 : lo + 1 + _CHUNK] = block.T.reshape(-1)[: spec.n - lo]
        exps[j] = exponent
    del block                          # the last view of the scan's buffers: free them
    # right to left and top down, so each step reads entries not yet overwritten
    for lo in reversed(range(0, spec.n, _CHUNK)):
        x, power = np.frexp(spec._chunk(lo, lo + _CHUNK))      # the values as exact pairs
        for r in range(k, 0, -1):
            num = x * table[r - 1, lo : lo + x.size]
            np.ldexp(num, power + int(exps[r - 1] - exps[r]), out=num)
            den = table[r, lo + 1 : lo + 1 + x.size]
            np.divide(num, den, out=den, where=den > 0.0)
        del x, power, num              # freed before the next chunk is read
    table[0] = 0.0
    return table


def esp_geometric_closed_form(q: float, n: int, k: int) -> float:
    """Closed form for e_k(1, q, ..., q^{n-1}); zero when k > n."""
    if not 0.0 < q < 1.0:
        raise ValidationError("q must lie strictly between 0 and 1")
    n, k = checked_int(n, "n", 1), checked_int(k, "k", 0)
    if k > n:
        return 0.0
    i = np.arange(1, k + 1, dtype=np.float64)
    product = float(np.prod((1.0 - q ** (n - i + 1)) / (1.0 - q**i)))
    return q ** (k * (k - 1) // 2) * product


def esp_geometric_ratio(q: float, n: int, k: int) -> float:
    """e_{k+1}/e_k for the spectrum (1, q, ..., q^{n-1}).

    k = n is allowed and gives 0, since e_{n+1} vanishes for n values.
    """
    if not 0.0 < q < 1.0:
        raise ValidationError("q must lie strictly between 0 and 1")
    n = checked_int(n, "n", 1)
    k = checked_int(k, "k", 0, n)
    return (q**k - q**n) / (1.0 - q ** (k + 1))


def esp_convolve(a: EspVector, b: EspVector, m: int) -> EspVector:
    """Cauchy product of two coefficient vectors, truncated at order m.

    This realizes the union rule f(concat(x, y)) = f(x) * f(y).
    """
    m = _order(m)
    return _esp_vector(*_cauchy(np.frexp(a.coeffs), np.frexp(b.coeffs), m), m)


def esp_scale(v: EspVector, s: float) -> EspVector:
    """Coefficients of the scaled spectrum: e_j(s * x) = s^j e_j(x)."""
    if not s > 0.0:
        raise ValidationError("scale factor must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = v.coeffs * float(s) ** np.arange(v.coeffs.size, dtype=np.float64)
    return _esp_vector(*np.frexp(coeffs), v.m)


def esp_ratio_head_tail(split: HeadTailSplit, k: int) -> tuple[float, float]:
    """(gamma, ratio) for a head/tail split at k.

    By the union rule, with u = f(head) and t = f(tail) = pivot^j f(rho)_j,
    the ratio e_{k+1}/e_k of the full spectrum is gamma * pivot where

        gamma = sum_i t_{k+1-i} u_i / (pivot * sum_i t_{k-i} u_i), i = 0..k.

    All terms are nonnegative and the denominator contains e_k(head) > 0,
    so the quotient is well defined whenever the split is; both parts are
    (mantissas, exponents) pairs, so neither needs a common scale.
    """
    k = checked_int(k, "k", 0)
    if k != split.k:
        raise ValidationError(f"split was made at k={split.k}, asked for k={k}")
    head, tail = _esp_coeffs(split.head, k), _esp_coeffs(split.tail, k + 1)
    ratio = float(_ratios(*_cauchy(head, tail, k + 1))[k])
    return ratio / split.pivot, ratio


def esp_dyadic_convolution(spec: PiecewiseDyadicSpectrum, m: int) -> EspVector:
    """e_0..e_m of a dyadic spectrum by esp_all's per-piece binomial product, O(lmax m^2)."""
    return esp_all(spec, m)
