"""Working-set budgets of the large-input paths, as traced peaks.

tracemalloc sees numpy's array buffers, so its peak is what a call holds
at once, in units of its input: n-entry arrays for a spectrum, n x n
arrays for a matrix.  The ESP scan works over fixed-size chunks, so its
budgets are constants in bytes, checked at two sizes.  The peaks repeat
exactly from run to run.  LAPACK's own workspace inside eigh is not traced.
"""
import tracemalloc

import numpy as np
import pytest

from oracles import random_psd
from volcur import (
    PsdMatrix,
    esp_ratios,
    generate_power_law,
    load_matrix,
    parse_generator_spec,
    rbf_kernel_matrix,
    read_array,
)
from volcur.esp import esp_marginals


def traced_peak(fn) -> int:
    """Peak bytes held by what fn allocates, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [10**6, 4 * 10**6])
def test_esp_ratios_holds_three_chunks_whatever_n(n):
    # the scaled chunk and two row buffers of 16 x 4096 entries: 1.69 MB traced
    spec = parse_generator_spec(f"pow:p=2,n={n}")
    assert traced_peak(lambda: esp_ratios(spec, 64)) <= 2.5e6


@pytest.mark.parametrize("n, k", [(200_000, 20), (800_000, 5)])
def test_esp_marginals_holds_its_table_and_a_few_chunks(n, k):
    # the (k + 1, n + 1) table, which becomes the result, plus 2.11 MB traced
    spec = generate_power_law(2.0, n)
    table = 8 * (k + 1) * (n + 1)
    assert traced_peak(lambda: esp_marginals(spec, k)) <= table + 2.5e6


def test_generated_spectrum_holds_its_values():
    # the generated values, kept as the Spectrum's, and one boolean check
    n = 2**20 - 1
    assert traced_peak(lambda: generate_power_law(2.0, n)) <= 1.2 * 8 * n


def test_read_array_holds_the_array_not_the_text(spd1000):
    assert traced_peak(lambda: read_array(spd1000)) <= 1.3 * 8 * 1000**2


def test_psd_matrix_holds_three_matrices_above_its_input():
    # its copy of the input (the entries), eigh's eigenvectors and the kept ones
    n = 500
    a = random_psd(np.random.default_rng(5), n, n)
    assert traced_peak(lambda: PsdMatrix(a)) <= 3.1 * a.nbytes


def test_rbf_kernel_matrix_holds_three_matrices():
    # the kernel, which becomes the entries, then eigh's eigenvectors and the kept ones
    n = 500
    x = np.random.default_rng(6).standard_normal((n, 5))
    assert traced_peak(lambda: rbf_kernel_matrix(x, 1.3)) <= 3.1 * 8 * n * n


def test_load_matrix_keeps_the_parsed_array(spd1000):
    # the parsed array becomes the entries: one n x n below parse-then-copy
    size = 8 * 1000**2
    owning = traced_peak(lambda: load_matrix(spd1000))
    copying = traced_peak(lambda: PsdMatrix(read_array(spd1000)))
    assert owning <= 3.1 * size
    assert owning <= copying - 0.95 * size
