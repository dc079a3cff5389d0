"""The workloads: seeded inputs, the ops of one cycle, and their checkers.

Each op is one ``volcur`` command line.  A checker takes the exit code,
stdout and stderr of an op and returns None when the output is correct, or a
one-line reason.  Checkers use numpy and ``reference`` only.

Known failures.  The commands below fail at the parent commit and are kept
out of the timed cycles, because a timed op must succeed; each run replays
them once as a probe and reports whether the failure still reproduces.
  bug 1 (ESP underflow, ROADMAP item 2): ``expected-error --spectrum
    geom:q=0.5,n=2000 --k 1..100`` exits 1 with "rank is below 47"; k = 46
    already prints 0 with exit code 0.
  bug 2 (dyadic zeros/NaN, ROADMAP item 2): ``expected-error --spectrum
    dyadic:lmax=20,base=0.25 --k 1..256`` exits 0 but prints 0 at k = 122 and
    NaN from k = 123; accuracy is lost from k = 119.
  bug 3 (empty subsets, same root cause as bug 1, ROADMAP item 2): ``sample
    --k 150`` on a 300 x 300 matrix with eigenvalues i^-2 prints a blank line
    and exits 0.  The cli-sample checker rejects it.
The timed cycle of cli-spectrum therefore stops those two commands at
k = 40 and k = 110, below where their accuracy degrades.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

Checker = Callable[[int, bytes, bytes], "str | None"]

REL_TOL = 1e-9    # reference values and closed forms
SLACK = 1e-12     # rounding allowance on the paper's inequalities


@dataclass
class Op:
    argv: list[str]
    check: Checker


@dataclass
class Probe:
    """A command that fails at the parent commit, with the failure's signature."""

    bug: str
    argv: list[str]
    check: Checker
    signature: Callable[[int, bytes, bytes], bool]


@dataclass
class Corruption:
    """A deliberately damaged copy of a real output, which must be rejected."""

    what: str
    damage: Callable[[bytes], bytes]


def write_matrix(path: Path, m: np.ndarray) -> None:
    np.savetxt(path, m, fmt="%.17g")


def random_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    """G G^T with G an n x n Gaussian matrix, exactly symmetric."""
    g = rng.standard_normal((n, n))
    m = g @ g.T
    return (m + m.T) / 2.0


def op_seeds(rng: np.random.Generator, count: int = 3) -> list[int]:
    """Per-op --seed values; ops reuse them in turn, so repeats are compared."""
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=count)]


def change_last_column(out: bytes) -> bytes:
    """Change the first digit of the last value on the first data row."""
    start = out.index(b"\n") + 1
    end = out.index(b"\n", start)
    return _bump_digit(out, out.rindex(b",", start, end) + 1)


def _bump_digit(out: bytes, at: int) -> bytes:
    while not out[at:at + 1].isdigit():
        at += 1
    digit = str((int(out[at:at + 1]) + 1) % 10).encode()
    return out[:at] + digit + out[at + 1:]


def duplicate_first_index(out: bytes) -> bytes:
    """Replace the second subset index on the first line with the first."""
    lines = out.split(b"\n")
    fields = lines[0].split(b",")
    fields[1] = fields[0]
    lines[0] = b",".join(fields)
    return b"\n".join(lines)


def _exit_reason(code: int, err: bytes) -> str:
    return f"exit {code}: {err.decode(errors='replace').strip()[-200:]}"


def _subset(fields: list[bytes], k: int, n: int) -> tuple[list[int] | None, str | None]:
    try:
        s = [int(f) for f in fields]
    except ValueError:
        return None, "subset index is not an integer"
    if len(s) != k or len(set(s)) != k:
        return None, f"subset has {len(set(s))} distinct of {len(s)} indices, want {k}"
    if min(s) < 1 or max(s) > n:
        return None, "subset index out of 1..n"
    return [i - 1 for i in s], None


def _positive_volume(m: np.ndarray, s: list[int]) -> bool:
    sign, _ = np.linalg.slogdet(m[np.ix_(s, s)])
    return sign > 0


def _csv(out: bytes, header: str, ks: list[int]) -> tuple[np.ndarray | None, str | None]:
    """Rows of a k-indexed CSV table as floats (blank cells read as NaN)."""
    lines = out.decode().split("\n")
    if lines[0] != header:
        return None, f"header {lines[0]!r}"
    if lines[-1] != "" or len(lines) != len(ks) + 2:
        return None, f"{len(lines) - 2} rows, want {len(ks)}"
    rows = [[float(c) if c else float("nan") for c in line.split(",")]
            for line in lines[1:-1]]
    table = np.array(rows)
    k_col = 1 if header.startswith("n,") else 0
    if not np.array_equal(table[:, k_col], ks):
        return None, "k column differs from the requested range"
    return table, None


class Workload:
    name = ""

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def cycle(self, i: int) -> list[Op]:
        raise NotImplementedError

    def corruptions(self) -> list[Corruption]:
        return []

    def probes(self) -> list[Probe]:
        return []


def sample_checker(m: np.ndarray, k: int, draws: int) -> Checker:
    n = m.shape[0]

    def check(code: int, out: bytes, err: bytes) -> str | None:
        if code != 0:
            return _exit_reason(code, err)
        lines = out.split(b"\n")
        if lines[-1] != b"" or len(lines) != draws + 1:
            return f"{len(lines) - 1} lines, want {draws}"
        for line in lines[:-1]:
            s, why = _subset(line.split(b",") if line else [], k, n)
            if why:
                return why
            if not _positive_volume(m, s):
                return "det M[S,S] is not positive"
        return None

    return check


class Sample(Workload):
    """sample on an n = 1000 dense SPD input (G G^T, G Gaussian)."""

    name = "cli-sample"
    n = 1000
    k = 50
    draws = 40

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 1000])
        self.m = random_psd(rng, self.n)
        self.path = workdir / "spd1000.txt"
        write_matrix(self.path, self.m)
        self.seeds = op_seeds(np.random.default_rng([seed, 2]))
        self.check = sample_checker(self.m, self.k, self.draws)
        rng = np.random.default_rng([seed, 300])
        q, _ = np.linalg.qr(rng.standard_normal((300, 300)))
        lam = np.arange(1, 301, dtype=np.float64) ** -2.0
        deep = (q * lam) @ q.T
        self.deep = (deep + deep.T) / 2.0
        self.deep_path = workdir / "deep300.txt"
        write_matrix(self.deep_path, self.deep)

    def cycle(self, i: int) -> list[Op]:
        seed = self.seeds[i % len(self.seeds)]
        return [Op(["sample", "--input", str(self.path), "--k", str(self.k),
                    "--draws", str(self.draws), "--seed", str(seed)], self.check)]

    def corruptions(self) -> list[Corruption]:
        return [Corruption("duplicated subset index", duplicate_first_index)]

    def probes(self) -> list[Probe]:
        def empty_subset(code, out, err):
            return code == 0 and any(not line for line in out.split(b"\n")[:-1])
        return [Probe("bug 3", ["sample", "--input", str(self.deep_path), "--k", "150",
                                "--draws", "1", "--seed", str(self.seeds[0])],
                      sample_checker(self.deep, 150, 1), empty_subset)]


def _within_paper_bound(err: np.ndarray, tail: np.ndarray, ks) -> bool:
    """tail_k <= E error <= (k+1) tail_k at every k."""
    k1 = np.asarray(ks) + 1.0
    return bool(np.all(tail * (1 - SLACK) <= err) and np.all(err <= k1 * tail * (1 + SLACK)))


def expected_error_checker(values: np.ndarray, ks: list[int], want: np.ndarray,
                           tol: float = REL_TOL) -> Checker:
    tail = ref.tail_sums(values, ks)

    def check(code: int, out: bytes, err: bytes) -> str | None:
        if code != 0:
            return _exit_reason(code, err)
        table, why = _csv(out, "k,expected_error", ks)
        if why:
            return why
        got = table[:, 1]
        if not np.all(np.isfinite(got)):
            return f"non-finite value at k={ks[int(np.argmin(np.isfinite(got)))]}"
        if not _within_paper_bound(got, tail, ks):
            return "expected error outside [tail_k, (k+1) tail_k]"
        bad = np.abs(got - want) > tol * np.abs(want)
        if np.any(bad):
            return f"differs from the reference from k={ks[int(np.argmax(bad))]}"
        return None

    return check


class Spectrum(Workload):
    name = "cli-spectrum"

    def setup(self, seed: int, workdir: Path) -> None:
        self.rotate = seed % 5
        pow2 = ref.power_law(2.0, 1_000_000)
        k64 = list(range(1, 65))
        q, n = 0.5, 2000
        geom = ref.geometric(q, n)
        k40, k100 = list(range(1, 41)), list(range(1, 101))
        geom_err = np.array([(k + 1) * (q**k - q**n) / (1 - q ** (k + 1)) for k in k100])
        dy = ref.dyadic(20, 0.25)
        k110, k256 = list(range(1, 111)), list(range(1, 257))
        dy_ratio = ref.dyadic_ratios(20, 0.25, k256)
        dy_err = (np.asarray(k256) + 1.0) * dy_ratio
        self.ops = [
            Op(["expected-error", "--spectrum", "pow:p=2,n=1000000", "--k", "1..64"],
               expected_error_checker(pow2, k64, ref.expected_errors(pow2, k64))),
            Op(["expected-error", "--spectrum", "geom:q=0.5,n=2000", "--k", "1..40"],
               expected_error_checker(geom, k40, geom_err[:40], 1e-10)),
            Op(["expected-error", "--spectrum", "dyadic:lmax=20,base=0.25", "--k", "1..110"],
               expected_error_checker(dy, k110, dy_err[:110])),
            Op(["figure", "--spectrum", "pow:p=2,n=1048575",
                "--mu", "dyadic:lmax=20,base=0.25", "--k", "1..64"],
               self.figure_checker(ref.power_law(2.0, 2**20 - 1), dy, k64, dy_ratio[:64])),
            Op(["bounds", "--spectrum", "pow:p=1,n=100000", "--k", "1..32"],
               self.bounds_checker(ref.power_law(1.0, 100_000), list(range(1, 33)))),
        ]
        self._probes = [
            Probe("bug 1", ["expected-error", "--spectrum", "geom:q=0.5,n=2000",
                            "--k", "1..100"],
                  expected_error_checker(geom, k100, geom_err, 1e-10),
                  lambda code, out, err: code == 1 and b"rank is below" in err),
            Probe("bug 2", ["expected-error", "--spectrum", "dyadic:lmax=20,base=0.25",
                            "--k", "1..256"],
                  expected_error_checker(dy, k256, dy_err),
                  lambda code, out, err: code == 0 and (b",nan\n" in out or b",0\n" in out)),
        ]

    def cycle(self, i: int) -> list[Op]:
        return self.ops[self.rotate:] + self.ops[: self.rotate]

    def figure_checker(self, lam: np.ndarray, mu: np.ndarray, ks: list[int],
                       want_m: np.ndarray) -> Checker:
        want_l = ref.expected_errors(lam, ks) / (np.asarray(ks) + 1.0)
        want_b = ref.tail_sums(mu, ks)

        def check(code: int, out: bytes, err: bytes) -> str | None:
            if code != 0:
                return _exit_reason(code, err)
            table, why = _csv(out, "k,ratio_lambda,ratio_mu,simple_bound", ks)
            if why:
                return why
            rl, rm, sb = table[:, 1], table[:, 2], table[:, 3]
            if not np.all(np.isfinite(table)):
                return "non-finite value"
            if not (np.all(rl <= rm * (1 + SLACK)) and np.all(rm <= sb * (1 + SLACK))):
                return "columns violate ratio_lambda <= ratio_mu <= simple_bound"
            for got, want, col in ((rl, want_l, "ratio_lambda"), (rm, want_m, "ratio_mu"),
                                   (sb, want_b, "simple_bound")):
                if np.any(np.abs(got - want) > REL_TOL * np.abs(want)):
                    return f"{col} differs from the reference"
            return None

        return check

    def bounds_checker(self, values: np.ndarray, ks: list[int]) -> Checker:
        tail = ref.tail_sums(values, ks)
        want = ref.expected_errors(values, ks) / (np.asarray(ks) + 1.0)
        header = "n,k,exact_ratio,simple_bound,dyadic_bound,expected_error,optimal_error"

        def check(code: int, out: bytes, err: bytes) -> str | None:
            if code != 0:
                return _exit_reason(code, err)
            table, why = _csv(out, header, ks)
            if why:
                return why
            n, _, exact, simple, dyadic, expected, optimal = table.T
            if np.any(n != values.size) or not np.all(np.isnan(dyadic)):
                return "n column or dyadic_bound column is wrong"
            cols = np.stack([exact, simple, expected, optimal])
            if not np.all(np.isfinite(cols)):
                return "non-finite value"
            if np.any(exact > simple * (1 + SLACK)):
                return "exact_ratio above simple_bound"
            if not _within_paper_bound(expected, tail, ks):
                return "expected error outside [tail_k, (k+1) tail_k]"
            k1 = np.asarray(ks) + 1.0
            for got, ref_col, col in ((exact, want, "exact_ratio"), (simple, tail, "simple_bound"),
                                      (optimal, tail, "optimal_error"),
                                      (expected, k1 * want, "expected_error")):
                if np.any(np.abs(got - ref_col) > REL_TOL * np.abs(ref_col)):
                    return f"{col} differs from the reference"
            return None

        return check

    def corruptions(self) -> list[Corruption]:
        return [Corruption("changed digit", change_last_column)]

    def probes(self) -> list[Probe]:
        return self._probes


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Sample, Spectrum)}


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()
