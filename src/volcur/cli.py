"""Command-line surface: spectra and matrices in, CSV/TSV out.

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 cap exceeded.  Output is byte-identical for identical inputs and seed;
floats are written with 17 significant digits.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .bounds import bound_reports, figure_rows
from .errors import (
    CapExceededError,
    NumericalError,
    ValidationError,
    VolcurError,
    checked_int,
)
from .esp import esp_all, esp_ratios
from .psd import (
    PsdMatrix,
    cur_approximation,
    cur_error_nuclear,
    eigendecompose,
    gram_matrix,
    invariant_sums,
    load_matrix,
    optimal_error,
    rbf_kernel_matrix,
    read_array,
)
from .sampling import (
    enumerate_distribution,
    expected_error_exact,
    sample_subset,
    sample_subsets,
)
from .spectra import (
    PiecewiseDyadicSpectrum,
    Spectrum,
    load_spectrum,
    parse_generator_spec,
)

VERIFY_TOL = 1e-9
VERIFY_MAX_N = 12


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors (exit 1), not argparse's exit 2
    def error(self, message):
        raise ValidationError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_k_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise ValidationError(f"malformed k range {text!r}") from exc
    if lo < 0:
        raise ValidationError(f"k must be nonnegative, got {text!r}")
    if lo > hi:
        raise ValidationError(f"empty k range {text!r}")
    return list(range(lo, hi + 1))


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("VOLCUR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValidationError(f"VOLCUR_SEED must be an integer: {env!r}") from exc
    return 0


def _resolve_spectrum(args) -> Spectrum | PiecewiseDyadicSpectrum:
    if (args.input is None) == (args.spectrum is None):
        raise ValidationError("provide exactly one of --input or --spectrum")
    if args.spectrum is not None:
        return parse_generator_spec(args.spectrum)
    return load_spectrum(args.input)


def _materialize(spec: Spectrum | PiecewiseDyadicSpectrum) -> Spectrum:
    return spec.materialized if isinstance(spec, PiecewiseDyadicSpectrum) else spec


def _dyadic_mu(text: str) -> PiecewiseDyadicSpectrum:
    mu = parse_generator_spec(text)
    if not isinstance(mu, PiecewiseDyadicSpectrum):
        raise ValidationError("--mu must be a dyadic generator spec")
    return mu


def _resolve_matrix(args) -> PsdMatrix:
    if args.input is None:
        raise ValidationError("this command requires --input <matrix file>")
    if args.kernel is not None and args.gram:
        raise ValidationError("--gram and --kernel are mutually exclusive")
    if args.kernel is not None:
        if args.sigma is None:
            raise ValidationError("--kernel rbf requires --sigma")
        return rbf_kernel_matrix(read_array(args.input), args.sigma)
    if args.gram:
        return gram_matrix(read_array(args.input))
    return load_matrix(args.input)


def _emit(args, lines: list[str]) -> None:
    delim = "\t" if args.format == "tsv" else ","
    text = "\n".join(line.replace(",", delim) for line in lines) + "\n"
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _ratio_pairs(args) -> list[tuple[int, float]]:
    """(k, e_{k+1}/e_k) over the requested k range."""
    spec = _resolve_spectrum(args)
    ks = _parse_k_range(args.k)
    ratios = esp_ratios(spec, checked_int(max(ks), "k", 0, spec.n - 1))
    return [(k, float(ratios[k])) for k in ks]


def cmd_esp(args) -> int:
    vec = esp_all(_resolve_spectrum(args), max(_parse_k_range(args.k)))
    lines = ["j,e_j"] + [f"{j},{_fmt(x)}" for j, x in enumerate(vec.coeffs)]
    _emit(args, lines)
    return 0


def cmd_ratio(args) -> int:
    lines = ["k,ratio"] + [f"{k},{_fmt(r)}" for k, r in _ratio_pairs(args)]
    _emit(args, lines)
    return 0


def cmd_expected_error(args) -> int:
    lines = ["k,expected_error"] + [
        f"{k},{_fmt((k + 1) * r)}" for k, r in _ratio_pairs(args)]
    _emit(args, lines)
    return 0


def cmd_bounds(args) -> int:
    spec = _resolve_spectrum(args)
    ks = _parse_k_range(args.k)
    mu = None if args.mu is None else _dyadic_mu(args.mu)
    reports = bound_reports(spec, ks, mu=mu)
    lines = [reports[0].csv_header] + [r.csv_row() for r in reports]
    _emit(args, lines)
    return 0


def cmd_approx(args) -> int:
    m = _resolve_matrix(args)
    ks = _parse_k_range(args.k)
    if len(ks) != 1:
        raise ValidationError("approx takes a single k, not a range")
    k = ks[0]
    seed = _resolve_seed(args)
    ed = eigendecompose(m)
    subset = sample_subset(ed, k, seed)
    approx = cur_approximation(m, subset)
    error = cur_error_nuclear(m, subset)
    expected = expected_error_exact(ed.eigenvalues, k) if k < ed.rank else 0.0
    optimal = optimal_error(ed.eigenvalues, k)
    summary = [
        "subset," + ",".join(str(i + 1) for i in subset),
        f"error_nuclear,{_fmt(error)}",
        f"expected_error,{_fmt(expected)}",
        f"optimal_error,{_fmt(optimal)}",
    ]
    delim = "\t" if args.format == "tsv" else ","
    sys.stdout.write("\n".join(s.replace(",", delim) for s in summary) + "\n")
    np.savetxt(sys.stdout if args.out is None else args.out, approx, fmt="%.17g")
    return 0


def cmd_sample(args) -> int:
    m = _resolve_matrix(args)
    ks = _parse_k_range(args.k)
    if len(ks) != 1:
        raise ValidationError("sample takes a single k, not a range")
    k = ks[0]
    seed = _resolve_seed(args)
    ed = eigendecompose(m)
    subsets = sample_subsets(ed, k, args.draws, seed)
    lines = [",".join(str(i + 1) for i in s) for s in subsets]
    _emit(args, lines)
    return 0


def cmd_verify(args) -> int:
    m = _resolve_matrix(args)
    if m.n > VERIFY_MAX_N:
        raise CapExceededError(
            f"verify enumerates all subsets and is capped at n <= {VERIFY_MAX_N}; "
            f"got n = {m.n}")
    ks = _parse_k_range(args.k)
    ed = eigendecompose(m)
    sums = invariant_sums(m, min(max(ks) + 1, m.n))
    ok = True
    lines = []
    for k in ks:
        k = checked_int(k, "k", 1, min(m.n - 1, ed.rank))
        dist = enumerate_distribution(m, k)
        brute = dist.expected_error
        exact = expected_error_exact(ed.eigenvalues, k)
        scale = max(abs(brute), abs(exact))
        if scale < 1e-12 * m.lambda_max * m.n:
            # both sides vanish (k at the rank); report exact agreement
            err_rel = 0.0
        else:
            err_rel = abs(brute - exact) / scale
        norm_rel = abs(dist.normalizer - sums[k]) / max(abs(sums[k]), 1e-300)
        if err_rel >= VERIFY_TOL or norm_rel >= VERIFY_TOL:
            ok = False
        lines.append(
            f"k={k} bruteforce={_fmt(brute)} exact={_fmt(exact)} "
            f"rel_err={err_rel:.3e} normalizer_rel_err={norm_rel:.3e}")
    lines.append("verify: PASS" if ok else "verify: FAIL")
    _emit(args, lines)
    return 0 if ok else 2


def cmd_figure(args) -> int:
    if args.spectrum is None or args.mu is None:
        raise ValidationError("figure requires --spectrum (lambda) and --mu (dyadic)")
    lam = _materialize(parse_generator_spec(args.spectrum))
    mu = _dyadic_mu(args.mu)
    ks = _parse_k_range(args.k)
    rows = figure_rows(lam, mu, ks)
    lines = ["k,ratio_lambda,ratio_mu,simple_bound"] + [
        f"{k},{_fmt(rl)},{_fmt(rm)},{_fmt(sb)}" for k, rl, rm, sb in rows]
    _emit(args, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="volcur",
                     description="Volume-sampled CUR approximation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, matrix=False, needs_seed=False,
            needs_draws=False, needs_mu=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", default=None, help="input file path")
        if not matrix:
            p.add_argument("--spectrum", default=None,
                           help="generator spec, e.g. geom:q=0.5,n=32")
        p.add_argument("--k", required=True,
                       help="single k or inclusive range, e.g. 4 or 1..32")
        if matrix:
            p.add_argument("--gram", action="store_true",
                           help="treat input as data X and use X^T X")
            p.add_argument("--kernel", default=None, choices=["rbf"],
                           help="treat input as data rows and build a kernel")
            p.add_argument("--sigma", type=float, default=None,
                           help="RBF kernel width")
        if needs_seed:
            p.add_argument("--seed", type=int, default=None,
                           help="RNG seed (default: $VOLCUR_SEED or 0)")
        if needs_draws:
            p.add_argument("--draws", type=int, default=1,
                           help="number of subsets to draw")
        if needs_mu:
            p.add_argument("--mu", default=None,
                           help="dyadic generator spec, e.g. dyadic:lmax=10,base=0.25")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="csv", choices=["csv", "tsv"])
        p.set_defaults(func=func)
        return p

    add("esp", cmd_esp, "elementary symmetric polynomial values e_0..e_m")
    add("ratio", cmd_ratio, "ESP ratios e_{k+1}/e_k")
    add("expected-error", cmd_expected_error,
        "exact expected CUR error (k+1) e_{k+1}/e_k")
    add("bounds", cmd_bounds, "bound report rows", needs_mu=True)
    add("approx", cmd_approx, "volume-sample a subset and emit the CUR matrix",
        matrix=True, needs_seed=True)
    add("sample", cmd_sample, "draw volume-sampled subsets",
        matrix=True, needs_seed=True, needs_draws=True)
    add("verify", cmd_verify,
        "check the expected-error formula against enumeration", matrix=True)
    add("figure", cmd_figure, "ratio/bound curves for plotting",
        needs_mu=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, VolcurError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
