"""Upper bounds on the ESP ratio e_{k+1}/e_k and report aggregation.

Two bounds are provided: the simple tail-sum bound (tight for rapidly
decreasing spectra) and a majorant bound for slowly decreasing spectra,
obtained by replacing the spectrum with a dominating piecewise-dyadic one
whose ratio is computable in O(lmax * (k+1)^2) regardless of n.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundInapplicableError, ValidationError, checked_int
from .esp import esp_geometric_ratio, esp_ratio, esp_ratios
from .spectra import PiecewiseDyadicSpectrum, Spectrum

__all__ = [
    "BoundReport",
    "simple_bound",
    "geometric_expected_error",
    "dyadic_upper_bound",
    "bound_report",
    "bound_reports",
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
    return spec.tail_sum(checked_int(k, "k", 0, spec.n - 1))


def geometric_expected_error(q: float, n: int, k: int) -> float:
    """Expected CUR error for the geometric spectrum (q, q^2, ..., q^n).

    Equals (k+1) q (q^k - q^n) / (1 - q^{k+1}); the factor q carries the
    rescaling from the (1, q, ..., q^{n-1}) ratio convention.
    """
    k = checked_int(k, "k", 1)
    return (k + 1) * q * esp_geometric_ratio(q, n, k)


def _check_domination(spec: Spectrum, mu: PiecewiseDyadicSpectrum) -> None:
    """Raise unless spec_i <= mu_i at every position i.

    spec is nonincreasing and mu is constant on each level, so the first
    violation, if any, sits at the first entry of a level: one comparison
    per level, without materializing mu.
    """
    values = spec.values
    if spec.n > mu.n and values[mu.n] > 0.0:
        raise BoundInapplicableError(
            f"majorant has only {mu.n} entries but the spectrum is "
            f"positive at position {mu.n + 1}")
    starts = [2**level - 1 for level in range(mu.lmax) if 2**level <= spec.n]
    tops = mu.base ** np.arange(mu.lmax).astype(np.float64)   # as in mu.materialized
    bad = np.nonzero(values[starts] > tops[: len(starts)])[0]
    if bad.size:
        i = starts[bad[0]]
        raise BoundInapplicableError(
            f"domination fails at position {i + 1}: spectrum value "
            f"{values[i]:.17g} exceeds majorant value {tops[bad[0]]:.17g}")


def dyadic_upper_bound(spec: Spectrum, k: int, base: float, lmax: int) -> float:
    """Majorant bound on e_{k+1}/e_k via a dominating dyadic spectrum.

    Verifies mu_i >= spec_i entrywise (error names the first violation),
    then returns the dyadic spectrum's own ratio, which dominates the
    spectrum's ratio by entrywise monotonicity.
    """
    k = checked_int(k, "k", 0, spec.n - 1)
    mu = PiecewiseDyadicSpectrum(lmax=lmax, base=base)
    _check_domination(spec, mu)
    return esp_ratio(mu, k)


def bound_reports(
    spec: Spectrum | PiecewiseDyadicSpectrum,
    ks: list[int],
    *,
    mu: PiecewiseDyadicSpectrum | None = None,
) -> list[BoundReport]:
    """Exact ratio, bounds, and errors for each k in ks.

    One ESP table up to max(ks) serves every k, and so does one table of
    the majorant mu, checked for domination once; pass mu to include the
    majorant bound.  A dyadic spec is materialized when mu is given, so
    that domination is checked entry by entry and every column comes from
    the same values.  A k at or above the rank of a plain spectrum reports
    a zero ratio: the approximation is then exact in expectation.
    """
    ks = [checked_int(k, "k", 0, spec.n - 1) for k in ks]
    if mu is not None and isinstance(spec, PiecewiseDyadicSpectrum):
        spec = spec.materialized
    kmax = max(ks, default=0)
    rank = spec.rank if isinstance(spec, Spectrum) else spec.n
    exact = np.zeros(kmax + 1)
    if rank:
        top = min(kmax, rank - 1)
        exact[: top + 1] = esp_ratios(spec, top)
    dyadic = None
    if mu is not None:
        _check_domination(spec, mu)
        dyadic = esp_ratios(mu, kmax)
    reports = []
    for k in ks:
        tail = spec.tail_sum(k)
        reports.append(BoundReport(
            n=spec.n, k=k, exact_ratio=float(exact[k]), simple_bound=tail,
            dyadic_bound=None if dyadic is None else float(dyadic[k]),
            expected_error=(k + 1) * float(exact[k]), optimal_error=tail))
    return reports


def bound_report(
    spec: Spectrum | PiecewiseDyadicSpectrum,
    k: int,
    *,
    mu: PiecewiseDyadicSpectrum | None = None,
) -> BoundReport:
    """Exact ratio, bounds, and errors for one k: bound_reports at ks = [k]."""
    return bound_reports(spec, [k], mu=mu)[0]


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
    ks = [checked_int(k, "k", 1, lam.n - 1) for k in ks]
    kmax = max(ks)
    rl, rm = esp_ratios(lam, kmax), esp_ratios(mu, kmax)
    return [(k, float(rl[k]), float(rm[k]), mu.tail_sum(k)) for k in ks]
