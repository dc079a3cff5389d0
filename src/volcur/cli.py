"""Command-line surface: spectra and matrices in, CSV/TSV out.

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 cap exceeded.  Output is byte-identical for identical inputs and seed;
floats are written with 17 significant digits.
"""
from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bounds import bound_reports, figure_rows
from .errors import NumericalError, ValidationError, VolcurError, checked_int
from .esp import _ratios, _scaled_coeffs, esp_all, esp_ratios
from .psd import (
    RANK_TOL,
    PsdMatrix,
    cur_approximation,
    cur_error_nuclear,
    gram_matrix,
    load_matrix,
    optimal_error,
    rbf_kernel_matrix,
    read_array,
)
from .sampling import (_enumeration_count, _within_rank, enumerate_distribution,
                       expected_error_exact, sample_subsets)
from .spectra import (
    PiecewiseDyadicSpectrum,
    Spectrum,
    load_spectrum,
    parse_generator_spec,
)

VERIFY_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors (exit 1), not argparse's exit 2
    def error(self, message):
        raise ValidationError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _check_finite(what: str, *values: float | None) -> None:
    """NumericalError "<what> overflows double precision" unless every
    value but None is finite: no command prints inf or nan."""
    if not all(v is None or math.isfinite(v) for v in values):
        raise NumericalError(f"{what} overflows double precision")


def _row(k: int, *values: float | None) -> str:
    """k and its values as a CSV row, None as a blank cell; finite values only."""
    _check_finite(f"a value at k = {k}", *values)
    return ",".join([str(k)] + ["" if v is None else _fmt(v) for v in values])


def _parse_k_range(text: str, top: int | None) -> range:
    """The --k range; its last k is checked against top (None: unchecked) before any is used."""
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
    return range(lo, checked_int(hi, "k", 0, top) + 1)


def _resolve_spectrum(args) -> Spectrum:
    if (args.input is None) == (args.spectrum is None):
        raise ValidationError("provide exactly one of --input or --spectrum")
    if args.spectrum is not None:
        return parse_generator_spec(args.spectrum)
    return load_spectrum(args.input)


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


def _emit(args, lines: list[str], matrix: np.ndarray | None = None) -> None:
    """lines to --out or stdout, commas made tabs under --format tsv; a matrix (approx's,
    %.17g, tab- or space-separated) takes --out, the lines then going to stdout."""
    tsv = args.format == "tsv"
    text = "\n".join(line.replace(",", "\t") if tsv else line for line in lines) + "\n"
    delimiter = "\t" if tsv else " "
    if args.out is None:
        sys.stdout.write(text)
        if matrix is not None:
            np.savetxt(sys.stdout, matrix, fmt="%.17g", delimiter=delimiter)
    elif matrix is None:
        Path(args.out).write_text(text)
    else:                              # the file first: a failed write prints nothing
        np.savetxt(args.out, matrix, fmt="%.17g", delimiter=delimiter)
        sys.stdout.write(text)


def _ratio_pairs(args) -> list[tuple[int, float]]:
    """(k, e_{k+1}/e_k) over the requested k range."""
    spec = _resolve_spectrum(args)
    ks = _parse_k_range(args.k, spec.n - 1)
    ratios = esp_ratios(spec, ks[-1])
    return [(k, float(ratios[k])) for k in ks]


def cmd_esp(args) -> int:
    spec = _resolve_spectrum(args)
    # e_j = 0 past n entries, so a larger k asks for nothing
    vec = esp_all(spec, _parse_k_range(args.k, spec.n)[-1])
    lines = ["j,e_j"] + [_row(j, x) for j, x in enumerate(vec)]
    _emit(args, lines)
    return 0


def cmd_ratio(args) -> int:
    lines = ["k,ratio"] + [_row(k, r) for k, r in _ratio_pairs(args)]
    _emit(args, lines)
    return 0


def cmd_expected_error(args) -> int:
    lines = ["k,expected_error"] + [_row(k, (k + 1) * r) for k, r in _ratio_pairs(args)]
    _emit(args, lines)
    return 0


def cmd_bounds(args) -> int:
    spec = _resolve_spectrum(args)
    ks = _parse_k_range(args.k, spec.n - 1)
    mu = None if args.mu is None else _dyadic_mu(args.mu)
    lines = ["n,k,exact_ratio,simple_bound,dyadic_bound,expected_error,optimal_error"]
    for r in bound_reports(spec, ks, mu=mu):
        lines.append(f"{r.n}," + _row(r.k, r.exact_ratio, r.simple_bound, r.dyadic_bound,
                                      r.expected_error, r.optimal_error))
    _emit(args, lines)
    return 0


def cmd_approx(args) -> int:
    m = _resolve_matrix(args)
    ks = _parse_k_range(args.k, None)
    if ks[0] != ks[-1]:
        raise ValidationError("approx takes a single k, not a range")
    k = ks[0]
    subset = sample_subsets(m, k, 1, args.seed)[0].tolist()
    values = {
        "error_nuclear": cur_error_nuclear(m, subset),
        "expected_error": expected_error_exact(m.eigenvalues, k),
        "optimal_error": optimal_error(m.eigenvalues, k),
    }
    for name, value in values.items():    # before anything is written
        _check_finite(name, value)
    summary = ["subset," + ",".join(str(i + 1) for i in subset)]
    summary += [f"{name},{_fmt(value)}" for name, value in values.items()]
    _emit(args, summary, cur_approximation(m, subset))
    return 0


def cmd_sample(args) -> int:
    m = _resolve_matrix(args)
    ks = _parse_k_range(args.k, None)
    if ks[0] != ks[-1]:
        raise ValidationError("sample takes a single k, not a range")
    subsets = sample_subsets(m, ks[0], args.draws, args.seed).tolist()
    _emit(args, [",".join(str(i + 1) for i in s) for s in subsets])
    return 0


def cmd_verify(args) -> int:
    m = _resolve_matrix(args)
    ks = _parse_k_range(args.k, None)
    checked_int(ks[0], "k", 1)         # both ends, and every k's count, before enumerating any
    _within_rank(m, ks[-1])
    for k in ks:
        _enumeration_count(m.n, k)
    mant, exps = _scaled_coeffs(m.eigenvalues, ks[-1] + 1)   # c_k = mant[k] 2^exps[k]
    ratios = np.append(_ratios(mant, exps), 0.0)            # e_{k+1}/e_k, 0 at k = rank
    dropped = (m.n - m.rank) * RANK_TOL * m.lambda_max      # at least the mass RANK_TOL drops
    ok, lines = True, []
    for k in ks:
        dist = enumerate_distribution(m, k)
        brute, exact = dist.expected_error, (k + 1) * float(ratios[k])
        _check_finite(f"a value at k = {k}", brute, exact)
        scale = max(abs(brute), abs(exact))
        # the dropped eigenvalues raise (k+1) e_{k+1}/e_k by at most (k+1) times their mass
        err_rel = 0.0 if scale <= (k + 1) * dropped else abs(brute - exact) / scale
        # both sides' c_k as mantissas, aligned at the larger exponent
        (nm, ne), ce = dist.normalizer, int(exps[k])
        a, b = math.ldexp(nm, ne - max(ne, ce)), math.ldexp(mant[k], ce - max(ne, ce))
        norm_rel = abs(a - b) / b
        if err_rel >= VERIFY_TOL or norm_rel >= VERIFY_TOL:
            ok = False
        lines.append(
            f"k={k} bruteforce={_fmt(brute)} exact={_fmt(exact)} "
            f"rel_err={err_rel:.3e} normalizer_rel_err={norm_rel:.3e}")
    lines.append("verify: PASS" if ok else "verify: FAIL")
    _emit(args, lines)
    return 0 if ok else 2


def cmd_figure(args) -> int:
    if args.mu is None:
        raise ValidationError("figure requires --mu (dyadic)")
    lam = _resolve_spectrum(args)
    mu = _dyadic_mu(args.mu)
    ks = _parse_k_range(args.k, lam.n - 1)
    rows = figure_rows(lam, mu, ks)
    lines = ["k,ratio_lambda,ratio_mu,simple_bound"] + [_row(*row) for row in rows]
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
            p.add_argument("--seed", type=int, default=0,
                           help="RNG seed (default: 0)")
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
    except BrokenPipeError:                   # a reader that stopped early: run() ends quietly
        raise
    except (VolcurError, OSError) as exc:     # any other OSError is an input problem: exit 1
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


def run() -> None:
    """The process entry of the `volcur` command and `python -m volcur.cli`.

    Every module is imported by now, so gc.freeze() moves the ~21k objects
    numpy and volcur made at import to the permanent generation: no
    collection walks them while the command runs, nor at the interpreter's
    exit (21 ms of the 0.22 s that `python -c "import volcur.cli"` takes on
    a 2-vCPU VM).  Objects the command makes are collected as before.
    main() never freezes, so a process that calls it in-process keeps its
    garbage collectable.

    A reader that closes stdout early (`volcur approx ... | head -1`) is not
    an error: exit 0, nothing on stderr.  stdout is then pointed at
    os.devnull, as the Python docs advise, so the last flush cannot fail.
    """
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    run()
