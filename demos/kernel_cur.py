"""Volume-sampled CUR on an RBF kernel matrix.

Kernel matrices are natural CUR targets: keeping actual rows and
columns means keeping actual data points as landmarks. This script
builds a Gaussian kernel on clustered 1-D points, samples landmark
sets by volume sampling, and compares the realized nuclear error to
the exact expectation and the spectral optimum.
"""
import numpy as np

from volcur import (
    cur_approximation,
    cur_error_nuclear,
    expected_error_exact,
    optimal_error,
    rbf_kernel_matrix,
    sample_subsets,
)

rng = np.random.default_rng(7)

# Three clusters on the line; the kernel is nearly block structured
# with one dominant direction per cluster.
points = np.concatenate([
    rng.normal(-4.0, 0.3, 30),
    rng.normal(0.0, 0.3, 30),
    rng.normal(4.0, 0.3, 30),
])
m = rbf_kernel_matrix(points[:, None], sigma=1.0)

print("90-point RBF kernel, leading eigenvalues:")
print("  ", np.array2string(m.eigenvalues.values[:6], precision=3))

k = 3
expected = expected_error_exact(m.eigenvalues, k)
best = optimal_error(m.eigenvalues, k)
print(f"\nk = {k}: optimal error {best:.4f}, expected error {expected:.4f} "
      f"(guarantee: at most {k + 1} * optimal = {(k + 1) * best:.4f})")

# Draw a few landmark sets. Watch the error against coverage: sets
# that hit all three clusters land near the optimum, sets that double
# up on a cluster pay for the one they missed. The expectation above
# averages over exactly this spread.
subsets = sample_subsets(m, k, draws=5, seed=3)
print("\nsampled landmark sets and their errors:")
for s in subsets:
    err = cur_error_nuclear(m, s)
    landmarks = np.sort(points[list(s)])
    covered = len(set(np.digitize(landmarks, [-2.0, 2.0])))
    print(f"  points {np.array2string(landmarks, precision=2)}: "
          f"{covered}/3 clusters, nuclear error {err:.4f}")

# The approximation reproduces the selected rows and columns exactly;
# the residual lives entirely on the complement.
s = subsets[0]
approx = cur_approximation(m, s)
kept = list(s)
gap = np.abs(approx[kept, :] - m.entries[kept, :]).max()
print(f"\nlargest deviation on kept rows: {gap:.2e}")
print(f"residual trace: {np.trace(m.entries - approx):.4f} "
      f"(equals the nuclear error {cur_error_nuclear(m, s):.4f})")
