"""Upper bounds on the ESP ratio e_{k+1}/e_k and report aggregation.

bound_reports gives both bounds beside the exact ratio: the simple
tail-sum bound (tight for rapidly decreasing spectra, and equal to the
optimal rank-k error) and, when a majorant mu is passed, a bound for
slowly decreasing spectra: the ratio of a dominating piecewise-dyadic
spectrum, computable in O(lmax * (k+1)^2) regardless of n.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError, checked_int
from .esp import esp_ratios
from .spectra import PiecewiseDyadicSpectrum, Spectrum

__all__ = [
    "BoundReport",
    "bound_reports",
    "figure_rows",
]


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


def _check_domination(spec: Spectrum, mu: PiecewiseDyadicSpectrum) -> None:
    """ValidationError unless mu is dyadic and spec_i <= mu_i at every
    position i; a failed domination names its first violating position.

    spec is nonincreasing and mu is constant on each piece, so the first
    violation, if any, is at the first entry of a piece or at position
    mu.n, the first past mu: one entry of spec is read at each, by
    spec._entry, which for a dyadic spec is the value of its piece.
    """
    if not isinstance(mu, PiecewiseDyadicSpectrum):
        raise ValidationError("majorant mu must be a PiecewiseDyadicSpectrum")
    if spec._entry(mu.n) > 0.0:
        raise ValidationError(
            f"majorant has only {mu.n} entries but the spectrum is "
            f"positive at position {mu.n + 1}")
    for start, _, top in mu.pieces:
        value = spec._entry(start)
        if value > top:
            raise ValidationError(
                f"domination fails at position {start + 1}: spectrum value "
                f"{value:.17g} exceeds majorant value {top:.17g}")


def bound_reports(
    spec: Spectrum,
    ks: list[int],
    *,
    mu: PiecewiseDyadicSpectrum | None = None,
) -> list[BoundReport]:
    """Exact ratio, bounds, and errors for each k in ks.

    One ESP table up to max(ks) serves every k, and so does one table of
    the majorant mu, checked for domination once; pass mu to include the
    majorant bound.  A dyadic spec stays symbolic, with or without mu: its
    ratios come from the per-piece product and its tail sums from piece
    arithmetic.  At and past the last k with e_k > 0 the ratio is 0, as in
    esp_ratios: the approximation is then exact in expectation.
    """
    ks = [checked_int(k, "k", 0, spec.n - 1) for k in ks]
    kmax = max(ks, default=0)
    exact = esp_ratios(spec, kmax)
    dyadic = None
    if mu is not None:
        _check_domination(spec, mu)
        dyadic = esp_ratios(mu, kmax)
    reports = []
    for k, tail in zip(ks, spec._tail_sums(ks)):
        reports.append(BoundReport(
            n=spec.n, k=k, exact_ratio=float(exact[k]), simple_bound=tail,
            dyadic_bound=None if dyadic is None else float(dyadic[k]),
            expected_error=(k + 1) * float(exact[k]), optimal_error=tail))
    return reports


# Unexported: perfbench/tracer.py, which binds it with getattr, is its only user.
def bound_report(
    spec: Spectrum,
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

    lam is any spectrum, dyadic too; ratio_lambda is its exact ratio, and
    ratio_mu the majorant's, both traces at k = 0 and 0 past the rank.
    The bound column is the majorant's tail sum, the quantity the
    simple-bound inequality caps ratio_mu with, so the three columns are
    ordered at every k.
    """
    if lam.n != mu.n:
        raise ValidationError(
            f"spectrum lengths differ: {lam.n} vs {mu.n}")
    _check_domination(lam, mu)
    ks = [checked_int(k, "k", 0, lam.n - 1) for k in ks]
    kmax = max(ks, default=0)
    rl, rm = esp_ratios(lam, kmax), esp_ratios(mu, kmax)
    return [(k, float(rl[k]), float(rm[k]), mu.tail_sum(k)) for k in ks]
