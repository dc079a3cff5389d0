"""Working-set budgets of the large-input paths, as traced peaks.

tracemalloc sees numpy's array buffers, so its peak is what a call holds
at once, in units of its input: n-entry arrays for a spectrum, n x n
arrays for a matrix.  The ESP scan works over fixed-size chunks and a
generated spectrum is computed one chunk at a time, so their budgets are
constants in bytes, checked at two sizes.  The peaks repeat exactly from
run to run.  LAPACK's own workspace inside eigh is not traced.
"""
import shutil
import tracemalloc

import numpy as np
import pytest

from oracles import random_psd
from volcur import (
    PsdMatrix,
    Spectrum,
    esp_marginals,
    esp_ratio_head_tail,
    esp_ratios,
    generate_power_law,
    load_matrix,
    parse_generator_spec,
    rbf_kernel_matrix,
    read_array,
    split_head_tail,
)
from volcur import esp
from volcur.cli import main
from volcur.esp import _CHUNK


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
    # the scaled chunk and two row buffers of 16 x 4096 entries, and each
    # generated chunk while it is read: 2.19 MB traced
    spec = parse_generator_spec(f"pow:p=2,n={n}")
    assert traced_peak(lambda: esp_ratios(spec, 64)) <= 2.5e6


def test_esp_ratios_at_a_high_order_is_one_scan(monkeypatch):
    # (m + 1)^2 > _CHUNK: no head and tail, whose union-rule product holds
    # (m + 1) x (tail order + 1) terms; 2.18 MB traced
    spec = generate_power_law(1.0, _CHUNK + 1)

    def refused(*args):
        raise AssertionError("split into head and tail")

    monkeypatch.setattr(esp, "_cauchy", refused)
    assert traced_peak(lambda: esp_ratios(spec, 299)) <= 2.5e6


def test_split_head_tail_holds_no_generated_spectrum():
    # two formulas and the pivot, read alone (1.5 kB traced)
    s = generate_power_law(2.0, 10**6)
    splits = []
    assert traced_peak(lambda: splits.append(split_head_tail(s, 20))) < 1e6
    held = split_head_tail(Spectrum(generate_power_law(2.0, 10**6).values), 20)
    assert esp_ratio_head_tail(splits[0]) == esp_ratio_head_tail(held)


def test_a_slice_of_a_held_spectrum_reads_its_entries_in_place():
    # one boolean mask of the checks at a time, 1.0 MB traced, not a copy of the 8 MB held
    s = Spectrum(np.linspace(1.0, 0.0, 10**6))
    tail = s._slice(1, s.n)
    assert traced_peak(lambda: tail.values) < 2e6
    assert np.shares_memory(tail.values, s.values)


@pytest.mark.parametrize("n, k", [(200_000, 20), (800_000, 5)])
def test_esp_marginals_holds_its_table_and_a_few_chunks(n, k):
    # the (k + 1, n + 1) table, which becomes the result, plus 2.17 MB traced
    spec = generate_power_law(2.0, n)
    table = 8 * (k + 1) * (n + 1)
    assert traced_peak(lambda: esp_marginals(spec, k)) <= table + 2.5e6


@pytest.mark.parametrize("command", ["bounds", "figure"])
def test_deep_dyadic_spectrum_under_a_majorant_stays_symbolic(command, capsys):
    # n = 2^48 - 1: the level product and a level-head domination check, no entries
    argv = [command, "--spectrum", "dyadic:lmax=48,base=0.25",
            "--mu", "dyadic:lmax=48,base=0.5", "--k", "1..32"]
    codes = []
    assert traced_peak(lambda: codes.append(main(argv))) < 1e6
    assert codes == [0]
    assert len(capsys.readouterr().out.splitlines()) == 33


def test_generated_spectrum_holds_its_values():
    # none of them: a formula whose entries are computed when read (480 bytes traced)
    n = 2**20 - 1
    assert traced_peak(lambda: generate_power_law(2.0, n)) <= 4096


@pytest.mark.parametrize("argv", [
    ["expected-error", "--spectrum", "pow:p=2,n={n}", "--k", "1..64"],
    ["bounds", "--spectrum", "pow:p=1,n={n}", "--k", "1..32"],
    ["figure", "--spectrum", "pow:p=2,n={n}", "--mu", "dyadic:lmax={lmax},base=0.25",
     "--k", "1..64"],
], ids=["expected-error", "bounds", "figure"])
@pytest.mark.parametrize("lmax", [20, 22])
def test_spectral_command_holds_no_generated_spectrum(argv, lmax, capsys):
    # n = 2^20 - 1 and 2^22 - 1: the scan's chunks and the generated one, 2.2 to
    # 2.4 MB traced for the whole run at either size (8 n bytes more when held)
    n = 2**lmax - 1
    argv = [a.format(n=n, lmax=lmax) for a in argv]
    codes = []
    assert traced_peak(lambda: codes.append(main(argv))) <= 3e6
    assert codes == [0]
    assert capsys.readouterr().out.count("\n") == 1 + int(argv[-1].partition("..")[2])


def test_read_array_holds_the_array_not_the_text(spd1000, cache):
    # a miss: the file is hashed, parsed and its parse stored
    assert traced_peak(lambda: read_array(spd1000)) <= 1.3 * 8 * 1000**2
    assert len(list(cache.glob("*.npy"))) == 1


def test_a_cached_read_holds_the_array_alone(spd1000, cache):
    read_array(spd1000)
    assert traced_peak(lambda: read_array(spd1000)) <= 1.05 * 8 * 1000**2


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


def test_load_matrix_keeps_the_parsed_array(spd1000, cache):
    # the parsed array becomes the entries: one n x n below parse-then-copy,
    # each read a miss that stores its parse
    size = 8 * 1000**2
    owning = traced_peak(lambda: load_matrix(spd1000))
    shutil.rmtree(cache)
    copying = traced_peak(lambda: PsdMatrix(read_array(spd1000)))
    assert len(list(cache.glob("*.npy"))) == 1
    assert owning <= 3.1 * size
    assert owning <= copying - 0.95 * size
