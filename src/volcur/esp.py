"""Elementary symmetric polynomials of spectra.

Coefficient vectors are 0-indexed: coeffs[j] = e_j, with e_0 = 1 and
e_j = 0 for j beyond the number of entries.  All recursions here add
nonnegative terms only, so there is no cancellation; accuracy is limited
by plain rounding.

Every ESP of the package is computed here, carried internally as a
mantissa and an integer exponent, e_j = mantissa * 2^exponent, so values
far outside double range keep full precision.  Plain spectra run one
prefix recursion whose rows are rescaled by exact powers of two; dyadic
spectra multiply per-level binomial coefficients, aligning exponents per
order.  Ratios (esp_ratios) and the sampler's marginals (esp_marginals)
are quotients of such values, so they are scale free; only esp_all, which
returns plain doubles, can overflow or underflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, RankDeficiencyError, ValidationError
from .spectra import HeadTailSplit, PiecewiseDyadicSpectrum, Spectrum

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

_CENTER, _SLACK = 512, 256         # prefix rows: last entry within 2^(512 +- 256)


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


def _prefix_rows(values: np.ndarray, m: int):
    """Yield (row, exponent) for j = 0..min(m, n): row[i] * 2**exponent = e_j(values[:i]).

    Row j is the cumulative sum of row j-1 times values: the classic
    O(n*m) update evaluated column-major.  A row whose last entry leaves
    2^(512 +- 256) is rescaled by an exact power of two, so values round as
    in the unscaled recursion wherever that one stays in double range.  The
    window sits high: with values <= 1 a row grows by at most a factor n
    per step but can shrink by any factor.
    """
    n = int(values.size)
    row = np.full(n + 1, 2.0**_CENTER)
    exponent = -_CENTER
    yield row, exponent
    for _ in range(min(m, n)):
        prev = row
        row = np.empty(n + 1)
        row[0] = 0.0
        np.cumsum(values * prev[:-1], out=row[1:])
        shift = math.frexp(row[-1])[1] - _CENTER
        if row[-1] and abs(shift) > _SLACK:
            np.ldexp(row, -shift, out=row)
            exponent += shift
        yield row, exponent


def _esp_coeffs(values: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """e_0..e_m of the values as (mantissas, exponents), zeros beyond n."""
    last = np.zeros(m + 1)
    exps = np.zeros(m + 1, dtype=np.int64)
    for j, (row, exponent) in enumerate(_prefix_rows(values, m)):
        last[j], exps[j] = row[-1], exponent
    mant, shift = np.frexp(last)
    return mant, np.where(mant > 0.0, exps + shift, 0)


def _level_coeffs(level: int, base: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """f of one dyadic level (2^level copies of base^level) to order m.

    coeffs[j] = base^(level*j) * C(2^level, j) by the multiplicative
    recurrence, each step split by frexp into (mantissas, exponents).
    """
    size = 2**level
    ratio = base**level
    mant = np.ones(min(m, size) + 1)
    exps = np.zeros(mant.size, dtype=np.int64)
    for j in range(mant.size - 1):
        mant[j + 1], shift = math.frexp(mant[j] * ratio * (size - j) / (j + 1))
        exps[j + 1] = exps[j] + shift
    return mant, exps


def _cauchy(a, b, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Union rule f(concat(x, y)) = f(x) * f(y) on (mantissas, exponents).

    Each order sums its terms relative to its largest one, so only terms
    negligible next to that one can underflow.
    """
    (ma, ea), (mb, eb) = a, b
    order = np.add.outer(np.arange(ma.size), np.arange(mb.size))
    terms = np.outer(ma, mb)
    keep = (order <= m) & (terms > 0.0)
    order, terms, exps = order[keep], terms[keep], np.add.outer(ea, eb)[keep]
    top = np.full(m + 1, np.iinfo(np.int64).min)
    np.maximum.at(top, order, exps)
    total = np.bincount(order, weights=np.ldexp(terms, exps - top[order]), minlength=m + 1)
    mant, shift = np.frexp(total)
    return mant, np.where(total > 0.0, top + shift, 0)


def _scaled_coeffs(spec: Spectrum | PiecewiseDyadicSpectrum, m: int):
    """(scale, mantissas, exponents) with e_j = scale^j * mantissas[j] * 2^exponents[j].

    A plain spectrum is divided by its largest entry (the scale); a dyadic
    one multiplies its levels, smallest values first.
    """
    if isinstance(spec, PiecewiseDyadicSpectrum):
        acc = (np.ones(1), np.zeros(1, dtype=np.int64))
        for level in range(spec.lmax - 1, -1, -1):
            acc = _cauchy(acc, _level_coeffs(level, spec.base, m), m)
        return 1.0, *acc
    scale = float(spec.values[0]) if spec.n and spec.values[0] > 0.0 else 1.0
    return scale, *_esp_coeffs(spec.values / scale, m)


def _ratios(scale: float, mant: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """e_{k+1}/e_k for every k below the last order of scaled coefficients."""
    zero = np.flatnonzero(mant[:-1] == 0.0)
    if zero.size:
        raise RankDeficiencyError(
            f"e_{zero[0]} = 0: spectrum rank is below {zero[0]}")
    return scale * np.ldexp(mant[1:] / mant[:-1], exps[1:] - exps[:-1])


def esp_all(s: Spectrum | PiecewiseDyadicSpectrum, m: int) -> EspVector:
    """All values e_0 .. e_m of the spectrum (zeros beyond its length)."""
    if not isinstance(m, int) or m < 0:
        raise ValidationError("truncation order m must be a nonnegative integer")
    scale, mant, exps = _scaled_coeffs(s, m)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.ldexp(mant, exps) * scale ** np.arange(m + 1, dtype=np.float64)
    if not np.all(np.isfinite(coeffs)):
        raise NumericalError(
            "ESP values overflow double precision at this scale; "
            "use esp_ratios, which is scale free")
    return EspVector(coeffs)


def esp_ratios(spec: Spectrum | PiecewiseDyadicSpectrum, kmax: int) -> np.ndarray:
    """The ratios e_{k+1}/e_k for k = 0..kmax, of a plain or dyadic spectrum.

    The ratio is 0 at k equal to the rank; above it e_k = 0 and
    RankDeficiencyError is raised.
    """
    if not isinstance(kmax, int) or kmax < 0:
        raise ValidationError("k must be a nonnegative integer")
    return _ratios(*_scaled_coeffs(spec, kmax + 1))


def esp_ratio(s: Spectrum | PiecewiseDyadicSpectrum, k: int) -> float:
    """The ratio e_{k+1}/e_k (see esp_ratios)."""
    return float(esp_ratios(s, k)[k])


def esp_marginals(spec: Spectrum, k: int) -> np.ndarray:
    """Inclusion probabilities for drawing k <= rank entries with weight prod(v).

    out[r, i] = v_i e_{r-1}(v_1..v_{i-1}) / e_r(v_1..v_i) for 1 <= r <= k
    and 1 <= i <= n, the chance that entry i joins when r of the first i
    entries remain to be chosen; zero where e_r(v_1..v_i) = 0.
    """
    values = spec.values / spec.values[0]
    rows, exps = zip(*_prefix_rows(values, k))
    table = np.stack(rows)
    num = np.ldexp(values * table[:-1, :-1], -np.diff(exps)[:, None])
    den = table[1:, 1:]
    out = np.zeros((k + 1, values.size + 1))
    np.divide(num, den, out=out[1:, 1:], where=den > 0.0)
    return out


def esp_geometric_closed_form(q: float, n: int, k: int) -> float:
    """Closed form for e_k(1, q, ..., q^{n-1}); zero when k > n."""
    if not 0.0 < q < 1.0:
        raise ValidationError("q must lie strictly between 0 and 1")
    if n < 1 or k < 0:
        raise ValidationError("need n >= 1 and k >= 0")
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
    if not 0 <= k <= n:
        raise ValidationError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    return (q**k - q**n) / (1.0 - q ** (k + 1))


def esp_convolve(a: EspVector, b: EspVector, m: int) -> EspVector:
    """Cauchy product of two coefficient vectors, truncated at order m.

    This realizes the union rule f(concat(x, y)) = f(x) * f(y).
    """
    if not isinstance(m, int) or m < 0:
        raise ValidationError("truncation order m must be a nonnegative integer")
    return EspVector(np.ldexp(*_cauchy(np.frexp(a.coeffs), np.frexp(b.coeffs), m)))


def esp_scale(v: EspVector, s: float) -> EspVector:
    """Coefficients of the scaled spectrum: e_j(s * x) = s^j e_j(x)."""
    if not s > 0.0:
        raise ValidationError("scale factor must be positive")
    powers = float(s) ** np.arange(v.coeffs.size, dtype=np.float64)
    return EspVector(v.coeffs * powers)


def esp_ratio_head_tail(split: HeadTailSplit, k: int) -> tuple[float, float]:
    """(gamma, ratio) for a head/tail split at k.

    By the union rule, with u = f(head) and t = f(tail) = pivot^j f(rho)_j,
    the ratio e_{k+1}/e_k of the full spectrum is gamma * pivot where

        gamma = sum_i t_{k+1-i} u_i / (pivot * sum_i t_{k-i} u_i), i = 0..k.

    All terms are nonnegative and the denominator contains e_k(head) > 0,
    so the quotient is well defined whenever the split is.  Both parts are
    normalized by the leading entry, which leaves gamma unchanged.
    """
    if not isinstance(k, int) or k < 0:
        raise ValidationError("k must be a nonnegative integer")
    if k != split.k:
        raise ValidationError(f"split was made at k={split.k}, asked for k={k}")
    scale = float(split.head.values[0]) if k >= 1 else split.pivot
    head = _esp_coeffs(split.head.values / scale, k)
    tail = _esp_coeffs(split.tail.values / scale, k + 1)
    ratio = float(_ratios(scale, *_cauchy(head, tail, k + 1))[k])
    return ratio / split.pivot, ratio


def esp_dyadic_convolution(spec: PiecewiseDyadicSpectrum, m: int) -> EspVector:
    """e_0..e_m of a dyadic spectrum by per-level binomial convolution.

    Each constant level has a closed-form coefficient vector; the full
    spectrum is their union, so its coefficients are the truncated Cauchy
    product of the levels: O(lmax * (m+1)^2), independent of n.  esp_all
    takes the same path for dyadic input.
    """
    return esp_all(spec, m)
