"""Upper bounds on the ESP ratio e_{k+1}/e_k and report aggregation.

Two bounds are provided: the simple tail-sum bound (tight for rapidly
decreasing spectra) and a majorant bound for slowly decreasing spectra,
obtained by replacing the spectrum with a dominating piecewise-dyadic one
whose ratio is computable in O(lmax * (k+1)^2) regardless of n.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundInapplicableError, ValidationError
from .esp import esp_geometric_ratio, esp_ratio, esp_ratios
from .spectra import PiecewiseDyadicSpectrum, Spectrum

__all__ = [
    "BoundReport",
    "simple_bound",
    "geometric_expected_error",
    "dyadic_upper_bound",
    "bound_report",
    "figure_rows",
]

_CSV_HEADER = "n,k,exact_ratio,simple_bound,dyadic_bound,expected_error,optimal_error"


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Bounds and exact quantities for one (spectrum, k) pair.

    dyadic_bound is None when no majorant was given.
    """

    n: int
    k: int
    exact_ratio: float
    simple_bound: float
    dyadic_bound: float | None
    expected_error: float
    optimal_error: float

    csv_header = _CSV_HEADER

    def csv_row(self) -> str:
        def fmt(x: float | None) -> str:
            return "" if x is None else format(x, ".17g")

        return ",".join(
            [str(self.n), str(self.k), fmt(self.exact_ratio),
             fmt(self.simple_bound), fmt(self.dyadic_bound),
             fmt(self.expected_error), fmt(self.optimal_error)])


def simple_bound(spec: Spectrum, k: int) -> float:
    """Tail sum lambda_{k+1} + ... + lambda_n, an upper bound on e_{k+1}/e_k.

    Coincides with the optimal rank-k nuclear error of the spectrum.
    """
    if not 0 <= k < spec.n:
        raise ValidationError(f"k must satisfy 0 <= k < n, got k={k}, n={spec.n}")
    return spec.tail_sum(k)


def geometric_expected_error(q: float, n: int, k: int) -> float:
    """Expected CUR error for the geometric spectrum (q, q^2, ..., q^n).

    Equals (k+1) q (q^k - q^n) / (1 - q^{k+1}); the factor q carries the
    rescaling from the (1, q, ..., q^{n-1}) ratio convention.
    """
    if not isinstance(k, int) or k < 1:
        raise ValidationError("k must be a positive integer")
    return (k + 1) * q * esp_geometric_ratio(q, n, k)


def _check_domination(spec: Spectrum, mu: PiecewiseDyadicSpectrum) -> None:
    values = spec.values
    mu_values = mu.materialized.values
    if spec.n > mu.n:
        beyond = values[mu.n :]
        bad = np.nonzero(beyond > 0.0)[0]
        if bad.size:
            i = mu.n + int(bad[0]) + 1
            raise BoundInapplicableError(
                f"majorant has only {mu.n} entries but the spectrum is "
                f"positive at position {i}")
        values = values[: mu.n]
    bad = np.nonzero(values > mu_values[: values.size])[0]
    if bad.size:
        i = int(bad[0]) + 1
        raise BoundInapplicableError(
            f"domination fails at position {i}: spectrum value "
            f"{values[bad[0]]:.17g} exceeds majorant value {mu_values[bad[0]]:.17g}")


def dyadic_upper_bound(spec: Spectrum, k: int, base: float, lmax: int) -> float:
    """Majorant bound on e_{k+1}/e_k via a dominating dyadic spectrum.

    Verifies mu_i >= spec_i entrywise (error names the first violation),
    then returns the dyadic spectrum's own ratio, which dominates the
    spectrum's ratio by entrywise monotonicity.
    """
    if not 0 <= k < spec.n:
        raise ValidationError(f"k must satisfy 0 <= k < n, got k={k}, n={spec.n}")
    mu = PiecewiseDyadicSpectrum(lmax=lmax, base=base)
    _check_domination(spec, mu)
    return esp_ratio(mu, k)


def bound_report(
    spec: Spectrum | PiecewiseDyadicSpectrum,
    k: int,
    *,
    mu: PiecewiseDyadicSpectrum | None = None,
) -> BoundReport:
    """Aggregate exact ratio, bounds, and errors for one k.

    Pass mu to include the majorant bound for a plain spectrum.
    """
    if not 0 <= k < spec.n:
        raise ValidationError(f"k must satisfy 0 <= k < n, got k={k}, n={spec.n}")
    if isinstance(spec, PiecewiseDyadicSpectrum) or k < spec.rank:
        exact = esp_ratio(spec, k)
    else:
        # rank-deficient beyond k: the approximation is exact in expectation
        exact = 0.0
    dyadic = None
    if mu is not None and isinstance(spec, Spectrum):
        dyadic = dyadic_upper_bound(spec, k, mu.base, mu.lmax)
    tail = spec.tail_sum(k)
    return BoundReport(
        n=spec.n, k=k, exact_ratio=exact, simple_bound=tail,
        dyadic_bound=dyadic, expected_error=(k + 1) * exact,
        optimal_error=tail)


def figure_rows(
    lam: Spectrum, mu: PiecewiseDyadicSpectrum, ks: list[int]
) -> list[tuple[int, float, float, float]]:
    """Rows (k, ratio_lambda, ratio_mu, simple_bound) for plotting.

    ratio_lambda comes from the direct recursion (O(n * kmax)), ratio_mu
    from the fast convolution path, and the bound column is the
    majorant's tail sum, the quantity the simple-bound inequality caps
    ratio_mu with, so the three columns are ordered at every k.
    """
    if not ks:
        raise ValidationError("k range must be nonempty")
    if lam.n != mu.n:
        raise ValidationError(
            f"spectrum lengths differ: {lam.n} vs {mu.n}")
    _check_domination(lam, mu)
    kmax = max(ks)
    if not 1 <= min(ks) <= kmax < lam.n:
        raise ValidationError("k range must satisfy 1 <= k < n")
    rl, rm = esp_ratios(lam, kmax), esp_ratios(mu, kmax)
    return [(k, float(rl[k]), float(rm[k]), mu.tail_sum(k)) for k in ks]
