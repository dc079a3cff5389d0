"""A tour of the elementary-symmetric-polynomial toolbox.

ESPs drive everything in this package: subset-sum normalizers, expected
errors, and spectral bounds are all ESP ratios. This script walks the
identities the fast paths rely on.
"""
import numpy as np

from volcur import (
    PiecewiseDyadicSpectrum,
    esp_all,
    esp_convolve,
    esp_geometric_closed_form,
    esp_ratio,
    esp_ratio_head_tail,
    esp_scale,
    make_spectrum,
    split_head_tail,
)

# e_j over (1, 2, 3): by hand e_1 = 6, e_2 = 2+3+6 = 11, e_3 = 6.
s = make_spectrum([1.0, 2.0, 3.0])
print("e_0..e_3 of (3, 2, 1):", esp_all(s, 3))

# Concatenation turns into coefficient convolution, exactly like
# multiplying the characteristic polynomials of two diagonal blocks.
a = make_spectrum([4.0, 1.0])
b = make_spectrum([2.0])
joined = make_spectrum([4.0, 2.0, 1.0])
conv = esp_convolve(esp_all(a, 3), esp_all(b, 3), 3)
print("convolved:", conv)
print("direct:   ", esp_all(joined, 3))

# Scaling the spectrum by s multiplies e_j by s^j; no recomputation
# needed when a matrix is rescaled.
scaled = esp_scale(esp_all(joined, 3), 10.0)
print("e_j of 10x spectrum:", scaled)

# The head/tail split evaluates the ratio from the ESPs of head and tail,
# joined by the union rule; gamma is that ratio over the tail's lead.
split = split_head_tail(joined, 1)
gamma, ratio = esp_ratio_head_tail(split)
print(f"head/tail at k=1: gamma={gamma:.6g}, ratio={ratio:.6g} "
      f"(direct: {esp_ratio(joined, 1):.6g})")

# Geometric spectra have a closed form, handy as an oracle: compare
# against the recursion for (1, q, ..., q^9).
q = 0.5
spec = make_spectrum(q ** np.arange(10))
closed = [esp_geometric_closed_form(q, 10, j) for j in range(4)]
print("geometric closed form e_0..e_3:", np.array(closed))
print("recursion:                     ", esp_all(spec, 3))

# For piecewise-dyadic spectra (constant on blocks of doubling length)
# the convolution over levels gives e_j for n around a million without
# touching n numbers one at a time.
d = PiecewiseDyadicSpectrum(lmax=20, base=0.25)
vec = esp_all(d, 4)
print(f"dyadic n={d.n}: e_1 = {vec[1]:.8g}, e_4 = {vec[4]:.8g}")
