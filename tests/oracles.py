"""Independent brute-force oracles.

Everything here avoids the library's fast paths on purpose: ESP values by
subset enumeration, invariant sums by principal-minor determinants (LU),
nuclear norms by SVD, CUR matrices by the pseudoinverse formula and
by triangular solves,
the sampler's two phases as one serial chain and a projection-DPP draw
that re-orthonormalizes the basis with a QR per step, inclusion
probabilities by prefix and suffix ESPs,
ESP prefix rows by one serial cumsum per row, in double or long double,
the Gaussian kernel as one expression of fresh temporaries, and two
matrix families whose spectra and expected errors have closed forms.
"""
from __future__ import annotations

import math
from itertools import chain, combinations, count

import numpy as np


def esp_brute(values, j: int) -> float:
    """e_j by explicit subset enumeration (math.fsum for stable adds)."""
    values = list(values)
    if j == 0:
        return 1.0
    if j > len(values):
        return 0.0
    return math.fsum(math.prod(c) for c in combinations(values, j))


def unit_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(values / 2^u, u) with 2^u <= values[0] < 2^(u+1), u = 0 for a zero lead.

    The library's ESP scale: a power of two, so the division is exact.
    """
    u = math.frexp(values[0])[1] - 1 if values.size and values[0] > 0.0 else 0
    return np.ldexp(values, -u), u


def sequential_prefix_rows(values: np.ndarray, m: int):
    """Yield (row, exponent) for j = 0..min(m, n): row[i] * 2**exponent = e_j(values[:i]).

    The serial recursion the library's blocked scan replaced: row j is the
    cumsum of values times row j-1, with the same power-of-two rescale of
    a row whose last entry leaves 2^(512 +- 256).
    """
    n = int(values.size)
    row = np.full(n + 1, 2.0**512)
    exponent = -512
    yield row, exponent
    for _ in range(min(m, n)):
        prev = row
        row = np.empty(n + 1)
        row[0] = 0.0
        np.cumsum(values * prev[:-1], out=row[1:])
        shift = math.frexp(row[-1])[1] - 512
        if row[-1] and abs(shift) > 256:
            np.ldexp(row, -shift, out=row)
            exponent += shift
        yield row, exponent


def sequential_ratios(values: np.ndarray, kmax: int) -> np.ndarray:
    """e_{k+1}/e_k for k = 0..kmax from sequential_prefix_rows."""
    last, exps = zip(*((row[-1], e) for row, e in sequential_prefix_rows(values, kmax + 1)))
    last, exps = np.array(last), np.array(exps)
    return np.ldexp(last[1:] / last[:-1], exps[1:] - exps[:-1])


def sequential_marginals(values: np.ndarray, k: int) -> np.ndarray:
    """esp_marginals of a nonincreasing spectrum, over sequential_prefix_rows."""
    values = unit_scaled(values)[0]
    rows, exps = zip(*sequential_prefix_rows(values, k))
    table = np.stack(rows)
    num = np.ldexp(values * table[:-1, :-1], -np.diff(exps)[:, None])
    den = table[1:, 1:]
    out = np.zeros((k + 1, values.size + 1))
    np.divide(num, den, out=out[1:, 1:], where=den > 0.0)
    return out


def longdouble_prefix_rows(values: np.ndarray, m: int):
    """Yield row for j = 0..min(m, n): row[i] = e_j(values[:i]), in long double.

    The serial recursion without rescaling: only for spectra whose ESPs
    stay in long double range.
    """
    x = np.asarray(values, dtype=np.longdouble)
    row = np.ones(x.size + 1, dtype=np.longdouble)
    yield row
    for _ in range(min(m, x.size)):
        nxt = np.zeros_like(row)
        np.cumsum(x * row[:-1], out=nxt[1:])
        row = nxt
        yield row


def longdouble_ratios(values: np.ndarray, kmax: int) -> np.ndarray:
    """e_{k+1}/e_k for k = 0..kmax from longdouble_prefix_rows."""
    last = np.array([row[-1] for row in longdouble_prefix_rows(values, kmax + 1)])
    return last[1:] / last[:-1]


def minor_sums_brute(m: np.ndarray, up_to: int) -> np.ndarray:
    """(c_0..c_up_to) by enumerating principal minors with np.linalg.det."""
    n = m.shape[0]
    out = np.zeros(up_to + 1)
    out[0] = 1.0
    for j in range(1, up_to + 1):
        out[j] = math.fsum(
            float(np.linalg.det(m[np.ix_(s, s)])) for s in combinations(range(n), j))
    return out


def nuclear_norm_svd(a: np.ndarray) -> float:
    """Nuclear norm of an arbitrary matrix via singular values."""
    return float(np.linalg.svd(a, compute_uv=False).sum())


def cur_pinv(m: np.ndarray, subset) -> np.ndarray:
    """Skeleton approximation by the pseudoinverse formula C A^+ C^T."""
    s = sorted(subset)
    cols = m[:, s]
    a = m[np.ix_(s, s)]
    return cols @ np.linalg.pinv(a) @ cols.T


def cur_solve(m: np.ndarray, subset) -> tuple[float, np.ndarray]:
    """CUR error and approximation by triangular solves: the referee.

    With A = L L^T (LAPACK Cholesky) and W = L^{-1} B^T, the complement
    block is W^T W and the error is trace(C) - |W|_F^2.
    """
    s = sorted(subset)
    comp = sorted(set(range(m.shape[0])) - set(s))
    w = np.linalg.solve(np.linalg.cholesky(m[np.ix_(s, s)]), m[np.ix_(s, comp)])
    out = m.copy()
    out[np.ix_(comp, comp)] = w.T @ w
    return float(np.trace(m[np.ix_(comp, comp)]) - np.sum(w * w)), out


def expected_error_enumeration(m: np.ndarray, k: int) -> float:
    """Expected CUR error with det weights (LU) and SVD error norms."""
    n = m.shape[0]
    scale = float(np.linalg.eigvalsh(m)[-1])
    weights, errors = [], []
    for s in combinations(range(n), k):
        w = float(np.linalg.det(m[np.ix_(s, s)]))
        if w <= 1e-12 * max(scale, 1.0) ** k:
            continue
        weights.append(w)
        errors.append(nuclear_norm_svd(m - cur_pinv(m, s)))
    weights = np.array(weights)
    return float(np.dot(weights / weights.sum(), np.array(errors)))


def eigenvector_subset_chain(marginals: np.ndarray, k: int, uniforms) -> list[int]:
    """The sampler's phase 1 as one serial chain: k eigenvector indices.

    Scanning i from the last eigenvalue down, index i-1 joins when
    uniforms[r - i] is below marginals[rem, i] (see esp_marginals).
    """
    chosen: list[int] = []
    rem = k
    r = marginals.shape[1] - 1
    for j, i in enumerate(range(r, 0, -1)):
        if rem == 0:
            break
        if uniforms[j] < marginals[rem, i]:
            chosen.append(i - 1)
            rem -= 1
    return chosen


def qr_projection_dpp(v: np.ndarray, proposals) -> list[int]:
    """Projection-DPP draw of V V^T by rejection, with one QR per step.

    proposals yields (column, row, accept) uniforms.  A proposal is column
    j = floor(column * k) of V, then row i by inverse CDF of V[:, j]^2; it
    is accepted when accept * |V_i|^2 is below row i's squared norm in the
    basis re-orthonormalized after eliminating the rows chosen so far
    (zero on those rows).
    """
    n, k = v.shape
    cdfs = np.cumsum(v * v, axis=0)
    work = v.copy()
    residual = np.einsum("ij,ij->i", v, v)
    chosen: list[int] = []
    for _ in range(k):
        while True:
            a, b, c = next(proposals)
            col = cdfs[:, min(int(a * k), k - 1)]
            i = min(int(np.searchsorted(col, b * col[-1], side="right")), n - 1)
            if c * float(v[i] @ v[i]) < residual[i]:
                break
        chosen.append(i)
        j = int(np.argmax(np.abs(work[i, :])))
        pivot_col = work[:, j] / work[i, j]
        work = work - np.outer(pivot_col, work[i, :])
        work = np.delete(work, j, axis=1)
        if work.shape[1]:
            work, _ = np.linalg.qr(work)
        residual = np.einsum("ij,ij->i", work, work)
        residual[chosen] = 0.0
    return chosen


def reference_draws(vectors: np.ndarray, marginals: np.ndarray, k: int, draws: int,
                    seed: int, window: int) -> list[tuple[int, ...]]:
    """Volume-sampled subsets by the sampler's stream layout, one draw at a time.

    Draw i reads its block of r + 3 window doubles in order from one
    Generator(Philox(seed)): r for eigenvector_subset_chain, then window
    (column, row, accept) triples for qr_projection_dpp, which continues
    with Generator(Philox(seed).jumped(i + 1)).
    """
    r = marginals.shape[1] - 1
    rng = np.random.Generator(np.random.Philox(seed))
    out = []
    for i in range(draws):
        block = rng.random(r + 3 * window)
        eig = eigenvector_subset_chain(marginals, k, block[:r])
        more = np.random.Generator(np.random.Philox(seed).jumped(i + 1))
        triples = chain(block[r:].reshape(-1, 3), (more.random(3) for _ in count()))
        out.append(tuple(sorted(qr_projection_dpp(vectors[:, eig], triples))))
    return out


def inclusion_probabilities(vectors: np.ndarray, eigenvalues: np.ndarray, k: int) -> np.ndarray:
    """P(i in S) under volume sampling (Kulesza & Taskar 2012).

    P(i in S) = sum_j V_ij^2 lambda_j e_{k-1}(lambda without lambda_j) / e_k(lambda).
    e_{k-1}(lambda without lambda_j) is the convolution of the ESPs of the
    eigenvalues before j and after j, each built by the serial recursion:
    sums of products of positive terms, with no subtraction.  The
    eigenvalues are divided by their mean first; the ratio does not change.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    lam = lam / lam.mean()
    n = lam.size
    prefix = np.zeros((n + 1, k + 1))      # prefix[j, a] = e_a(lam[:j])
    suffix = np.zeros((n + 1, k))          # suffix[j, a] = e_a(lam[j:])
    prefix[0, 0] = suffix[n, 0] = 1.0
    for j in range(n):
        prefix[j + 1] = prefix[j]
        prefix[j + 1, 1:] += lam[j] * prefix[j, :-1]
        suffix[n - 1 - j] = suffix[n - j]
        suffix[n - 1 - j, 1:] += lam[n - 1 - j] * suffix[n - j, :-1]
    without = np.einsum("ja,ja->j", prefix[:-1, :k], suffix[1:, ::-1])   # e_{k-1}, lam_j left out
    e_k = prefix[n, k]
    return (vectors * vectors) @ (lam * without / e_k)


def random_psd(rng: np.random.Generator, n: int, rank: int,
               scale: float = 1.0, zero_rows: int = 0) -> np.ndarray:
    """Random PSD matrix of the given rank; optional exact-zero rows."""
    g = rng.standard_normal((n, rank))
    for _ in range(zero_rows):
        g[int(rng.integers(0, n))] = 0.0
    return scale * (g @ g.T)


def inverse_square_psd(n: int = 300, seed: int = 300) -> np.ndarray:
    """Seeded n x n PSD matrix with eigenvalues i^-2, i = 1..n (full rank)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (q * np.arange(1, n + 1, dtype=np.float64) ** -2.0) @ q.T
    return (m + m.T) / 2.0


def rbf_kernel_expression(x: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-|x_i - x_j|^2 / (2 sigma^2)) as one numpy expression, unsymmetrized.

    The same operations in the same order as the library's in-place kernel.
    """
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.clip(d2, 0.0, None, out=d2)
    return np.exp(-d2 / (2.0 * sigma * sigma))


def brownian_covariance(n: int) -> tuple[np.ndarray, np.ndarray]:
    """min(i, j) for i, j = 1..n and its eigenvalues, nonincreasing.

    lambda_j = 1 / (4 sin^2((2j - 1) pi / (2 (2n + 1)))), j = 1..n: the
    inverse of min(i, j) is the second-difference matrix with a free end.
    """
    i = np.arange(1, n + 1, dtype=np.float64)
    angles = (2.0 * i - 1.0) * np.pi / (2.0 * (2 * n + 1))
    return np.minimum.outer(i, i), 1.0 / (4.0 * np.sin(angles) ** 2)


def identity_plus_ones(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """a I + b 1 1^T and its eigenvalues (a + n b, a, ..., a), for a, b > 0."""
    m = np.full((n, n), b)
    m.flat[:: n + 1] += a
    return m, np.r_[a + n * b, np.full(n - 1, a)]


def identity_plus_ones_expected_error(n: int, a: float, b: float) -> np.ndarray:
    """(k+1) e_{k+1} / e_k of (a + n b, a, ..., a) for k = 1..n-1, by binomials.

    With c = a + n b, e_k = C(n-1, k) a^k + c C(n-1, k-1) a^(k-1), so
    e_{k+1} / e_k = a (n-k)/k ((n-k-1) a/(k+1) + c) / ((n-k) a/k + c).
    """
    k = np.arange(1, n, dtype=np.float64)
    c = a + n * b
    ratio = a * (n - k) / k * ((n - k - 1) * a / (k + 1) + c) / ((n - k) * a / k + c)
    return (k + 1) * ratio
