"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Each criterion records a single verdict line; conftest.py echoes the
lines in the terminal summary so they survive output capture.
"""
import time
from functools import lru_cache

import numpy as np

import _acceptance_log

from volcur import (
    PiecewiseDyadicSpectrum,
    PsdMatrix,
    eigendecompose,
    enumerate_distribution,
    esp_all,
    esp_convolve,
    esp_dyadic_convolution,
    esp_geometric_closed_form,
    esp_geometric_ratio,
    esp_ratio,
    esp_scale,
    expected_error_bruteforce,
    expected_error_exact,
    figure_rows,
    generate_power_law,
    invariant_sums,
    make_spectrum,
    sample_subsets,
)
from volcur.cli import main as cli_main

UNDERFLOW_FLOOR = 1e-250


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    _acceptance_log.lines.append(line)
    print(line)
    assert ok, line


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


@lru_cache(maxsize=1)
def corpus():
    """200 randomized PSD matrices, n in 2..10, all ranks, mixed scales."""
    rng = np.random.default_rng(20260818)
    out = []
    for trial in range(200):
        n = int(rng.integers(2, 11))
        r = int(rng.integers(1, n + 1))
        g = rng.standard_normal((n, r))
        if trial % 4 == 0 and n >= 3:
            g[int(rng.integers(0, n))] = 0.0
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        out.append(PsdMatrix(scale * (g @ g.T)))
    return out


def test_criterion_1_exact_expectation_formula():
    start = time.perf_counter()
    worst = 0.0
    pairs = 0
    for m in corpus():
        ed = eigendecompose(m)
        for k in range(1, min(5, ed.rank - 1) + 1):
            exact = expected_error_exact(ed.eigenvalues, k)
            brute = expected_error_bruteforce(m, k)
            worst = max(worst, rel_err(exact, brute))
            pairs += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and pairs >= 300 and elapsed < 60.0
    report(1, ok,
           f"formula vs brute force on {pairs} (matrix, k) pairs, "
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_normalizer_identity():
    worst = 0.0
    pairs = 0
    for m in corpus():
        ed = eigendecompose(m)
        sums = invariant_sums(m, min(5, ed.rank - 1) if ed.rank > 1 else 0)
        for k in range(1, min(5, ed.rank - 1) + 1):
            dist = enumerate_distribution(m, k)
            worst = max(worst, rel_err(dist.normalizer, float(sums[k])))
            pairs += 1
    ok = worst < 1e-9 and pairs >= 300
    report(2, ok,
           f"minor sums vs eigenvalue ESPs on {pairs} pairs, "
           f"worst rel err {worst:.2e}")


def test_criterion_3_geometric_closed_form():
    worst_val = 0.0
    worst_ratio = 0.0
    checks = 0
    for q in (0.1, 0.5, 0.9, 0.99):
        for n in range(1, 65):
            spec = make_spectrum(q ** np.arange(n))
            vec = esp_all(spec, n)
            for k in range(n + 1):
                closed = esp_geometric_closed_form(q, n, k)
                if max(abs(closed), abs(vec[k])) >= UNDERFLOW_FLOOR:
                    worst_val = max(worst_val, rel_err(closed, vec[k]))
                    checks += 1
                if k < n:
                    ek1 = esp_geometric_closed_form(q, n, k + 1)
                    if min(abs(closed), abs(ek1)) >= UNDERFLOW_FLOOR:
                        worst_ratio = max(
                            worst_ratio,
                            rel_err(esp_geometric_ratio(q, n, k),
                                    esp_ratio(spec, k)))
                        checks += 1
    ok = worst_val < 1e-12 and worst_ratio < 1e-12 and checks > 5000
    report(3, ok,
           f"closed form over q grid, {checks} checks, worst value rel err "
           f"{worst_val:.2e}, worst ratio rel err {worst_ratio:.2e}")


def test_criterion_4_convolution_and_scaling():
    rng = np.random.default_rng(404)
    worst_conv = 0.0
    for _ in range(1000):
        na, nb = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        a = np.exp(rng.normal(0.0, 2.0, na))
        b = np.exp(rng.normal(0.0, 2.0, nb))
        m = na + nb
        conv = esp_convolve(esp_all(make_spectrum(a), m),
                            esp_all(make_spectrum(b), m), m)
        joined = esp_all(make_spectrum(np.concatenate([a, b])), m)
        for j in range(m + 1):
            if max(abs(conv[j]), abs(joined[j])) >= UNDERFLOW_FLOOR:
                worst_conv = max(worst_conv, rel_err(conv[j], joined[j]))
    worst_scale = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        x = np.exp(rng.normal(0.0, 2.0, n))
        s = 10.0 ** rng.uniform(-3.0, 3.0)
        via_rule = esp_scale(esp_all(make_spectrum(x), n), s)
        direct = esp_all(make_spectrum(s * x), n)
        for j in range(n + 1):
            worst_scale = max(worst_scale, rel_err(via_rule[j], direct[j]))
    ok = worst_conv < 1e-12 and worst_scale < 1e-12
    report(4, ok,
           f"1000 convolution cases (worst rel err {worst_conv:.2e}), "
           f"1000 scaling cases (worst rel err {worst_scale:.2e})")


def test_criterion_5_figure_reproduction(tmp_path):
    ks = list(range(1, 33))

    # structured-path scale: n = 2^20 - 1
    lmax = 20
    lam = generate_power_law(2.0, 2 ** lmax - 1)
    mu = PiecewiseDyadicSpectrum(lmax=lmax, base=0.25)
    rows_big = figure_rows(lam, mu, ks)

    # direct-path scale through the command line: n = 1023
    out = tmp_path / "figure.csv"
    code = cli_main(["figure", "--spectrum", "pow:p=2,n=1023",
                     "--mu", "dyadic:lmax=10,base=0.25", "--k", "1..32",
                     "--out", str(out)])
    assert code == 0
    rows_small = []
    for line in out.read_text().strip().splitlines()[1:]:
        k_s, rl, rm, sb = line.split(",")
        rows_small.append((int(k_s), float(rl), float(rm), float(sb)))

    chain_ok = True
    factor_ok = True
    worst_factor = np.inf
    for rows, lam_n in ((rows_big, lam), (rows_small, generate_power_law(2.0, 1023))):
        for k, r_lam, r_mu, sb in rows:
            if not (r_lam <= r_mu * (1 + 1e-12) and r_mu <= sb * (1 + 1e-12)):
                chain_ok = False
            if k >= 8:
                # emitted bound and the inverse-square tail both exceed 2x
                margin = min(sb / r_mu, lam_n.tail_sum(k) / r_mu)
                worst_factor = min(worst_factor, margin)
                if margin < 2.0:
                    factor_ok = False
    ok = chain_ok and factor_ok
    report(5, ok,
           f"ratio(lambda) <= ratio(mu) <= bound at k=1..32 for n=1023 and "
           f"n=2^20-1; bound/ratio(mu) >= {worst_factor:.2f} for k >= 8")


def test_criterion_6_dyadic_complexity():
    spec20 = PiecewiseDyadicSpectrum(lmax=20, base=0.25)
    spec16 = PiecewiseDyadicSpectrum(lmax=16, base=0.25)

    def best_time(spec):
        best = np.inf
        for _ in range(15):
            t0 = time.perf_counter()
            esp_dyadic_convolution(spec, 33)
            best = min(best, time.perf_counter() - t0)
        return best

    t20 = best_time(spec20)
    t16 = best_time(spec16)

    worst = 0.0
    for lmax in (4, 8, 12):
        d = PiecewiseDyadicSpectrum(lmax=lmax, base=0.25)
        m = min(32, d.n - 1)
        fast = esp_dyadic_convolution(d, m)
        slow = esp_all(d.materialized, m)
        for j in range(m + 1):
            if max(abs(fast[j]), abs(slow[j])) >= UNDERFLOW_FLOOR:
                worst = max(worst, rel_err(fast[j], slow[j]))

    # quadratic scaling in n would multiply the time by 256 from lmax 16 to 20
    ok = t20 < 0.050 and worst < 1e-10 and t20 < 256.0 * t16
    report(6, ok,
           f"lmax=20 k=32 ratio in {t20 * 1e3:.2f} ms; agreement with direct "
           f"recursion {worst:.2e}; time ratio lmax 16->20 = {t20 / t16:.2f}")


def test_criterion_7_sampler_distribution():
    rng = np.random.default_rng(42)
    g = rng.standard_normal((8, 8))
    m8 = g @ g.T
    g5 = rng.standard_normal((5, 5))
    m5 = g5 @ g5.T
    g6 = rng.standard_normal((6, 6))
    m6 = g6 @ g6.T
    configs = [(m5, 1, 11), (m6, 2, 13), (m8, 3, 11)]

    draws = 200_000
    worst_tv = 0.0
    for mat, k, seed in configs:
        m = PsdMatrix(mat)
        ed = eigendecompose(m)
        dist = enumerate_distribution(m, k)
        counts = dict.fromkeys(dist.subsets, 0)
        sampled = sample_subsets(ed, k, draws, seed=seed)
        for s in sampled:
            counts[s] += 1
        tv = 0.5 * sum(abs(counts[s] / draws - p)
                       for s, p in zip(dist.subsets, dist.probabilities))
        worst_tv = max(worst_tv, tv)

        again = sample_subsets(ed, k, 500, seed=seed)
        assert again == sampled[:500], "sampler is not reproducible"

    ok = worst_tv < 0.01
    report(7, ok,
           f"TV(empirical, enumerated) at 2e5 draws <= {worst_tv:.4f} over "
           f"(n=5,k=1), (n=6,k=2), (n=8,k=3); draws bit-reproducible")


def test_criterion_8_bound_properties():
    rng = np.random.default_rng(808)
    slack = 1e-12

    def gen(n):
        return np.sort(np.exp(rng.normal(0.0, 2.0, n)))[::-1]

    fails = {"simple": 0, "monotone": 0, "superadditive": 0, "sandwich": 0}
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        k = int(rng.integers(0, n))
        x = gen(n)
        y = gen(n)
        sx = make_spectrum(x)
        r_x = esp_ratio(sx, k)
        tail = sx.tail_sum(k)

        if r_x > tail + slack * max(r_x, tail):
            fails["simple"] += 1

        hi = np.sort(x * (1.0 + rng.uniform(0.0, 1.0, n)))[::-1]
        r_hi = esp_ratio(make_spectrum(hi), k)
        if r_x > r_hi + slack * max(r_x, r_hi):
            fails["monotone"] += 1

        r_sum = esp_ratio(make_spectrum(x + y), k)
        r_y = esp_ratio(make_spectrum(y), k)
        if r_sum < (r_x + r_y) - slack * max(r_sum, r_x + r_y):
            fails["superadditive"] += 1

        expected = (k + 1) * r_x
        hi_side = (k + 1) * tail
        if (expected < tail - slack * max(expected, tail)
                or expected > hi_side + slack * max(expected, hi_side)):
            fails["sandwich"] += 1

    ok = not any(fails.values())
    report(8, ok,
           "1000 randomized cases per property, failures: "
           + ", ".join(f"{name}={count}" for name, count in fails.items()))


def test_criterion_9_bordered_determinant():
    rng = np.random.default_rng(909)
    worst = 0.0
    for trial in range(100):
        k = int(rng.integers(1, 9))
        extra = int(rng.integers(2, 7))
        n = k + extra
        # the first k rows lie in a (k-1)-dimensional space, so the
        # leading k x k principal block is singular
        head = rng.standard_normal((k, k - 1)) @ rng.standard_normal((k - 1, n))
        g = np.vstack([head, rng.standard_normal((extra, n))])
        w = g @ g.T
        w /= np.linalg.eigvalsh(w)[-1]
        det = abs(float(np.linalg.det(w[: k + 1, : k + 1])))
        worst = max(worst, det)
    ok = worst < 1e-10
    report(9, ok,
           f"100 singular-leading-block matrices (unit spectral norm), "
           f"max bordered |det| = {worst:.2e}")
