"""Expected CUR error three ways: closed formula, enumeration, Monte Carlo.

The expected nuclear-norm error of a volume-sampled rank-k CUR
approximation has a closed form: (k+1) * e_{k+1}(lambda) / e_k(lambda).
This script checks it against full enumeration on a small matrix, then
against a Monte Carlo estimate where enumeration would already be
uncomfortable.
"""
import numpy as np

from volcur import (
    PsdMatrix,
    empirical_error,
    enumerate_distribution,
    expected_error_exact,
    optimal_error,
)

rng = np.random.default_rng(0)

# A small random PSD matrix where we can afford to enumerate all subsets.
g = rng.standard_normal((7, 7))
m = PsdMatrix(g @ g.T)

print("7x7 PSD matrix, eigenvalues:")
print("  ", np.array2string(m.eigenvalues.values, precision=3))
print()
print(" k   formula          enumeration      optimal")
for k in range(1, 6):
    exact = expected_error_exact(m.eigenvalues, k)
    brute = enumerate_distribution(m, k).expected_error
    best = optimal_error(m.eigenvalues, k)
    print(f" {k}   {exact:<15.10g}  {brute:<15.10g}  {best:.10g}")

# The two columns agree to machine precision: the formula is exact, not
# an approximation. The optimal column shows the (k+1) sandwich at work;
# the expectation never exceeds (k+1) times the optimal error.

# Now a 40x40 matrix: C(40, 5) is about 658 thousand subsets, so we
# sample instead and report a standard error next to the point estimate.
g = rng.standard_normal((40, 12))
m = PsdMatrix(g @ g.T)

k = 5
exact = expected_error_exact(m.eigenvalues, k)
mean, stderr = empirical_error(m, k, draws=4000, seed=1)
print()
print(f"40x40 rank-12 matrix, k={k}")
print(f"  formula:     {exact:.6g}")
print(f"  monte carlo: {mean:.6g} +/- {stderr:.2g}  (4000 draws)")
print(f"  |difference| in standard errors: {abs(mean - exact) / stderr:.2f}")
