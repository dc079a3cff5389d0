"""Volume sampling of column subsets and expected-error evaluation.

A size-k subset S is drawn with probability proportional to det M[S,S].
The expected nuclear-norm error of the CUR approximation built on such a
subset has the exact closed form

    E |M - M_S|_* = (k+1) * c_{k+1}(M) / c_k(M),

where c_j is the sum of j x j principal minors (equivalently e_j of the
eigenvalues).  This module provides that formula, an exact sampler, and
an enumeration oracle and Monte Carlo estimate whose subsets psd's kernel
factors (_factor_rows): the oracle's errors are 0 where the kernel refuses S,
and it holds c_k as a (mantissa, exponent) pair, as esp holds e_k.

Given the matrix's eigenpairs, a draw costs O(r) to choose its k
eigenvectors and O(k^3 log k) on average for its projection DPP: k H_k
proposals of O(k t) each.  Each chunk of draws also builds one
cumulative table of the eigenvector columns it uses.

Randomness: draw i of sample_subsets(m, k, draws, seed) reads doubles
[i L, (i + 1) L) of one counter-based Philox(seed) stream, with
L = r + 3 _window(k): r for phase 1 (one per eigen-index, spent or not),
then (column, row, accept) triples for phase 2's proposals.  A draw that
needs more proposals reads on from Philox(seed).jumped(i + 1).  So draw
i depends only on (seed, i, m, k), not on `draws` or on the chunks.
Every categorical draw is an explicit inverse-CDF lookup, so identical
seeds give bit-identical subsets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .errors import CapExceededError, NumericalError, checked_int
from .esp import esp_marginals, esp_ratio
from .psd import PsdMatrix, _skeleton, _subset_factor
from .spectra import DENSE_CAP, Spectrum

__all__ = [
    "ENUMERATION_CAP",
    "VolumeDistribution",
    "enumerate_distribution",
    "sample_subsets",
    "expected_error_exact",
    "empirical_error",
]

ENUMERATION_CAP = 1_000_000
_CHUNK_BYTES = 1 << 23     # working arrays of one chunk of draws
_REJECTIONS = 64           # a step fails after 64 k rejections in a row (chance ~e^-64)


@dataclass(frozen=True, eq=False)
class VolumeDistribution:
    """Exhaustive volume-sampling distribution over size-k subsets."""

    subsets: np.ndarray        # C(n,k) x k read-only intp, rows in lexicographic order
    normalizer: tuple[float, int]   # c_k(M) = sum of det M[S,S] = mantissa * 2**exponent
    probabilities: np.ndarray  # det M[S,S] / c_k(M)
    errors: np.ndarray         # CUR nuclear error per subset, 0 where S is singular

    @property
    def expected_error(self) -> float:
        """Sum of p(S) * error(S): the brute-force expected CUR error."""
        return math.fsum(self.probabilities * self.errors)


def enumerate_distribution(m: PsdMatrix, k: int) -> VolumeDistribution:
    """All size-k subsets with their volume-sampling probabilities and errors.

    One greedy pivoted Cholesky of M over each subset gives both: its pivots
    multiply to det M[S,S], a (mantissa, exponent) pair normalized at the
    largest, so the probabilities do not depend on the matrix's scale and the
    normalizer c_k is a pair too, mantissa in [1/2, 1), at any scale; and its
    residual diagonal sums to the CUR error, 0 where the kernel calls S singular
    (S is never drawn).  Refuses k above the rank, more than ENUMERATION_CAP
    subsets before it factors any, and a k at which every S is singular.
    """
    k = _within_rank(m, checked_int(k, "k", 1, m.n))
    count = _enumeration_count(m.n, k)
    subsets = np.fromiter(combinations(range(m.n), k), np.dtype((np.intp, (k,))), count)
    subsets.flags.writeable = False
    mant, exps, sums = _factor_rows(m, subsets)
    if not mant.any():
        raise NumericalError(f"every {k}-subset has volume 0: its pivot block is singular")
    scaled = np.ldexp(mant, exps - (top := exps[mant > 0.0].max()))   # the largest in [1/2, 1)
    mantissa, shift = math.frexp(total := scaled.sum())
    return VolumeDistribution(subsets=subsets, normalizer=(mantissa, int(top) + shift),
                              probabilities=scaled / total,
                              errors=np.where(np.isnan(sums), 0.0, sums))


def _factor_rows(m: PsdMatrix, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Over s: det M[S,S] = mant * 2^exp and CUR errors, 0 and nan where S is singular."""
    chunk = max(1, _CHUNK_BYTES // (8 * m.n * (s.shape[1] + 6)))
    mant, exps, sums = np.empty(len(s)), np.empty(len(s), dtype=np.int64), np.empty(len(s))
    with np.errstate(over="ignore"):
        for lo in range(0, len(s), chunk):
            pivots, d, _ = _subset_factor(m, s[lo : lo + chunk])
            mant[lo : lo + chunk], exps[lo : lo + chunk] = np.frexp(pivots[:, 0])
            for column in pivots.T[1:]:          # renormalized per pivot: the product stays in range
                mant[lo : lo + chunk], shift = np.frexp(mant[lo : lo + chunk] * column)
                exps[lo : lo + chunk] += shift
            sums[lo : lo + chunk] = np.where(pivots[:, -1] > 0.0, d.sum(axis=1), np.nan)
    return mant, exps, sums


def _within_rank(m: PsdMatrix, k: int) -> int:
    """k, refused above the rank of m, where every k-subset has zero volume."""
    if k > m.rank:
        raise NumericalError(
            f"cannot volume-sample {k} columns from a rank-{m.rank} matrix")
    return k


def _enumeration_count(n: int, k: int) -> int:
    """C(n, k), refused above ENUMERATION_CAP before any subset is built."""
    if (count := math.comb(n, k)) > ENUMERATION_CAP:
        raise CapExceededError(f"enumerating all C({n},{k}) = {count} subsets exceeds "
                               f"the enumeration cap of {ENUMERATION_CAP}")
    return count


def _window(k: int) -> int:
    """Proposals a draw's block holds: k (H_k + 2) + 16, past the mean k H_k by about 1.5 sd."""
    return math.ceil(k * (math.fsum(1.0 / j for j in range(1, k + 1)) + 2.0)) + 16


def _draw_bytes(n: int, r: int, k: int) -> int:
    """One draw's share of a chunk: uniforms (twice), proposals, basis, temporaries, row flags."""
    return 8 * (2 * r + 5 * _window(k) + 3 * k * k + 6 * k) + n


def _search(cdf: np.ndarray, rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf[row], target, side="right") elementwise, by bisection.

    Returns at most n - 1; cdf's rows are nondecreasing.
    """
    n = cdf.shape[1]
    flat, base = cdf.ravel(), rows * n - 1
    pos = np.zeros(targets.shape, dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        nxt = pos + step
        below = flat[base + np.minimum(nxt, n)] <= targets
        pos = np.where((nxt <= n) & below, nxt, pos)
        step >>= 1
    return np.minimum(pos, n - 1)


def _eigenvector_subsets(marginals_t: np.ndarray, k: int, u: np.ndarray) -> np.ndarray:
    """Phase 1 for a chunk: k eigenvector indices per draw, in the order chosen.

    Draw b scans i = r, ..., 1; index i - 1 joins when u[b, r - i] is below
    marginals[rem, i] (marginals_t is esp_marginals' transpose), with rem
    of the k still to choose.  All draws advance together, one index at a
    time, skipping the indices that no draw can take.
    """
    b, r = u.shape
    sel = np.empty((b, k), dtype=np.intp)
    rem = np.full(b, k)
    left = b * k
    u = u.T.copy()
    for j in np.flatnonzero(u.min(axis=1) < marginals_t[r:0:-1].max(axis=1)).tolist():
        hit = (u[j] < marginals_t[r - j].take(rem)).nonzero()[0]
        if hit.size:
            rh = rem[hit]
            sel[hit, k - rh] = r - j - 1
            rem[hit] = rh - 1
            left -= hit.size
            if not left:
                return sel
    raise NumericalError(
        f"a draw chose {k - int(rem.max())} eigenvectors, too few for {k} distinct indices")


def _projection_dpps(
    vectors: np.ndarray, sel: np.ndarray, u: np.ndarray, more: Callable[[int], np.ndarray]
) -> np.ndarray:
    """Phase 2 for a chunk: row b draws the projection DPP of V = vectors[:, sel[b]].

    Randomly pivoted Cholesky of V V^T by rejection (Epperly, Tropp and
    Webber, "Embrace rejection", 2024).  Proposal p spends u[b, 3p : 3p+3]:
    a column j of V uniformly, a row i by inverse CDF of V[:, j]^2 (so i
    has probability |V_i|^2 / k), and an accept uniform.  Row i is taken
    with probability d_i / |V_i|^2, d_i = |V_i|^2 - |Q V_i^T|^2 the
    residual diagonal, Q an orthonormal basis (Gram-Schmidt, twice) of
    the rows taken, d = 0 on them.  Sum d = k - t after t rows, so the
    taken row has probability d_i / (k - t): the projection DPP's chain
    rule, at O(k t) a proposal.  more(b) continues a draw's uniforms past
    its row of u.  Each round, every draw tries its next few proposals
    and keeps the first accepted; _REJECTIONS * k rejections in a row
    raise NumericalError.  Returns the rows in the order taken.
    """
    b, k = sel.shape
    n, window = vectors.shape[0], u.shape[1] // 3
    cols, local = np.unique(sel, return_inverse=True)
    local = local.reshape(b, k)             # sel as rows of cdf
    cdf = np.square(vectors.take(cols, axis=1).T, order="C")
    np.cumsum(cdf, axis=1, out=cdf)
    total = cdf[:, -1]
    bad = total[~(total > 0.0) | ~np.isfinite(total)]
    if bad.size:
        raise NumericalError(f"cannot draw an index from weights summing to {bad[0]}")

    def proposals(columns: np.ndarray, uu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c = np.take_along_axis(columns, np.minimum((uu[:, 0::3] * k).astype(np.intp), k - 1), 1)
        return _search(cdf, c, uu[:, 1::3] * total[c]), uu[:, 2::3]

    width = window + k                      # a round reads at most k past a lane's block
    rows = np.zeros((b, width), dtype=np.intp)
    accept = np.full((b, width), 2.0)       # the padding is never accepted
    rows[:, :window], accept[:, :window] = proposals(local, u)
    ids = np.arange(b)                      # each lane's draw within the chunk
    basis = np.zeros((b, k, k))
    picked = np.zeros((b, n), dtype=bool)
    chosen = np.empty((b, k), dtype=np.intp)
    out = np.empty((b, k), dtype=np.intp)
    t, ptr, run = (np.zeros(b, dtype=np.intp) for _ in range(3))
    while ids.size:
        lanes = np.arange(ids.size)
        q = basis[:, : int(t.max())]
        m = math.ceil(k / (k - float(t.mean())))   # about the proposals one step takes
        pos = (lanes * width + ptr)[:, None] + np.arange(m)
        cand = rows.take(pos)
        v = vectors.take(cand[..., None] * vectors.shape[1] + sel[:, None, :])
        w = np.einsum("lmk,lmk->lm", v, v)
        proj = v @ q.transpose(0, 2, 1)
        d = w - np.einsum("lmt,lmt->lm", proj, proj)
        hit = (accept.take(pos) * w < d) & ~picked.take((lanes * n)[:, None] + cand)
        first, got = hit.argmax(axis=1), hit.any(axis=1)
        spent = np.where(got, first + 1, np.minimum(m, window - ptr))
        ptr += spent
        run = np.where(got, 0, run + spent)
        if run.max() >= _REJECTIONS * k:
            raise NumericalError(f"{_REJECTIONS * k} proposals in a row were rejected, a chance "
                                 f"of about e^-{_REJECTIONS} if the eigenvectors are orthonormal")
        g = np.flatnonzero(got)
        if g.size:
            res = v[lanes, first] - (proj[lanes, first][:, None] @ q)[:, 0]
            res = (res - ((res[:, None] @ q.transpose(0, 2, 1)) @ q)[:, 0])[g]
            tg, row = t[g], cand[g, first[g]]
            basis[g, tg] = res / np.sqrt(np.einsum("gk,gk->g", res, res))[:, None]
            chosen[g, tg] = row
            picked[g, row] = True
            t[g] = tg + 1
        done = t == k
        if done.any():
            out[ids[done]] = chosen[done]
            state = (ids, sel, local, rows, accept, basis, picked, chosen, t, ptr, run)
            ids, sel, local, rows, accept, basis, picked, chosen, t, ptr, run = (
                a[~done] for a in state)
        for lane in np.flatnonzero(ptr >= window):
            fresh = proposals(local[lane : lane + 1], more(int(ids[lane]))[None])
            rows[lane, :window], accept[lane, :window] = fresh[0][0], fresh[1][0]
            ptr[lane] = 0
    return out


def sample_subsets(m: PsdMatrix, k: int, draws: int, seed: int) -> np.ndarray:
    """Draw `draws` independent volume-sampled subsets of size k.

    Two phases per draw: pick k eigenvector indices weighted by eigenvalue products (ESP
    marginals), then sample the projection determinantal process they span.  The mixture
    is exactly P(S) = det M[S,S] / c_k(M).  Draws run in chunks of at most _CHUNK_BYTES
    (_draw_bytes a draw), and draw i depends only on (seed, i, m, k).  More than DENSE_CAP
    indices in all raise CapExceededError before anything is allocated, and a draw without
    k distinct indices NumericalError.  Returns a read-only draws x k intp array, rows sorted.
    """
    k = _within_rank(m, checked_int(k, "k", 1))
    draws = checked_int(draws, "draws", 1)
    seed = checked_int(seed, "seed", 0)
    if draws * k > DENSE_CAP:
        raise CapExceededError(f"{draws} draws x {k} indices exceed the dense-array cap {DENSE_CAP}")
    r, window = m.rank, _window(k)
    width = r + 3 * window
    chunk = max(1, _CHUNK_BYTES // _draw_bytes(m.n, r, k))
    marginals_t = esp_marginals(m.eigenvalues, k).T.copy()
    stream = np.random.Generator(np.random.Philox(seed))
    continuations: dict[int, np.random.Generator] = {}

    def more(i: int) -> np.ndarray:
        if i not in continuations:
            continuations[i] = np.random.Generator(np.random.Philox(seed).jumped(i + 1))
        return continuations[i].random(3 * window)

    out = np.empty((draws, k), dtype=np.intp)
    for lo in range(0, draws, chunk):
        b = min(chunk, draws - lo)
        u = stream.random((b, width))
        sel = _eigenvector_subsets(marginals_t, k, u[:, :r])
        out[lo : lo + b] = _projection_dpps(m.vectors, sel, u[:, r:], lambda i: more(lo + i))
    out.sort(axis=1)
    if k > 1 and not np.all(out[:, 1:] > out[:, :-1]):
        raise NumericalError(f"a draw gave fewer than {k} distinct indices")
    out.flags.writeable = False
    return out


def expected_error_exact(spec: Spectrum, k: int) -> float:
    """Exact expected nuclear error under volume sampling: (k+1) e_{k+1}/e_k.

    Defined from k = 0, where the empty skeleton leaves the trace e_1, and 0
    at and past the last k with e_k > 0 (see esp_ratios).
    """
    k = checked_int(k, "k", 0)
    return (k + 1) * esp_ratio(spec, k)


def empirical_error(m: PsdMatrix, k: int, draws: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the expected CUR error, cur_error_nuclear's: (mean, stderr)."""
    errors = _factor_rows(m, s := sample_subsets(m, k, draws, seed))[2]
    if np.isnan(errors).any():       # a singular draw, refused as cur_error_nuclear refuses it
        _skeleton(m, s[np.isnan(errors)][:1])
    mean = float(errors.mean())
    stderr = float(errors.std(ddof=1) / math.sqrt(draws)) if draws > 1 else 0.0
    return mean, stderr
