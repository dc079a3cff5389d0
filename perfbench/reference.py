"""Reference values for the output checkers, computed with numpy alone.

Nothing here imports volcur: the checkers must not share a code path with
the program they judge.  The elementary symmetric polynomials use a
blocked recursion (a different evaluation order from volcur's prefix
cumsum), and the dyadic spectrum is evaluated in the log domain, so its
coefficients stay representable at orders where plain doubles underflow.
"""
from __future__ import annotations

import math

import numpy as np


def power_law(p: float, n: int) -> np.ndarray:
    return np.arange(1, n + 1, dtype=np.float64) ** (-p)


def geometric(q: float, n: int) -> np.ndarray:
    return q ** np.arange(n, dtype=np.float64)


def dyadic(lmax: int, base: float) -> np.ndarray:
    levels = np.arange(lmax)
    return np.repeat(base ** levels.astype(np.float64), 2**levels)


def tail_sums(values: np.ndarray, ks) -> np.ndarray:
    """sum(values[k:]) for each k, values sorted nonincreasing."""
    return np.array([float(np.sum(values[k:])) for k in ks])


def esp(values: np.ndarray, m: int) -> np.ndarray:
    """e_0..e_m of values / max(values).

    Splits the values into about sqrt(n) blocks, runs the one-term update
    e_j += v * e_{j-1} for all blocks at once, then multiplies the block
    polynomials.  Terms that underflow are below 1e-308 of e_0 = 1 and
    cannot change a coefficient that is itself representable.
    """
    v = np.asarray(values, dtype=np.float64)
    v = v / v.max()
    width = max(1, math.isqrt(v.size))
    blocks = -(-v.size // width)
    padded = np.zeros(blocks * width)
    padded[: v.size] = v
    columns = padded.reshape(blocks, width).T.copy()
    e = np.zeros((m + 1, blocks))   # e[j, b] = e_j of the block's values so far
    e[0] = 1.0
    step = np.empty((m, blocks))
    for col in columns:
        np.multiply(col, e[:-1], out=step)
        e[1:] += step
    out = e[:, 0]
    for b in range(1, blocks):
        out = np.convolve(out, e[:, b])[: m + 1]
    return out


def expected_errors(values: np.ndarray, ks) -> np.ndarray:
    """(k+1) e_{k+1}/e_k for each k: the exact volume-sampling expectation."""
    e = esp(values, max(ks) + 1)
    lam1 = float(np.max(values))
    return np.array([(k + 1) * lam1 * e[k + 1] / e[k] for k in ks])


def _log_conv(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """log of the Cauchy product of exp(a) and exp(b), truncated at m."""
    grid = a[:, None] + b[None, :]
    flipped = grid[:, ::-1]
    out = np.full(m + 1, -np.inf)
    for j in range(min(m + 1, a.size + b.size - 1)):
        terms = flipped.diagonal(b.size - 1 - j)
        top = terms.max()
        if np.isfinite(top):
            out[j] = top + math.log(float(np.sum(np.exp(terms - top))))
    return out


def dyadic_log_esp(lmax: int, base: float, m: int) -> np.ndarray:
    """log e_0..log e_m of the dyadic spectrum (2^l copies of base^l).

    One level contributes C(2^l, j) base^(l j); log C is a cumulative sum of
    log((N - i)/(i + 1)), which keeps every term of order one.
    """
    acc = np.full(m + 1, -np.inf)
    acc[0] = 0.0
    for level in range(lmax):
        size = 2**level
        jmax = min(m, size)
        i = np.arange(jmax, dtype=np.float64)
        steps = np.log((size - i) / (i + 1)) + level * math.log(base)
        lev = np.concatenate([[0.0], np.cumsum(steps)])
        acc = _log_conv(acc, lev, m)
    return acc


def dyadic_ratios(lmax: int, base: float, ks) -> np.ndarray:
    """e_{k+1}/e_k of the dyadic spectrum for each k."""
    loge = dyadic_log_esp(lmax, base, max(ks) + 1)
    return np.array([math.exp(loge[k + 1] - loge[k]) for k in ks])
