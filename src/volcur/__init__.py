"""volcur: volume-sampled CUR approximation of symmetric PSD matrices.

Rank-k skeleton (CUR) approximations built from subsets drawn with
probability proportional to det M[S,S] admit an exact expected-error
formula: E |M - M_S|_* = (k+1) c_{k+1}(M) / c_k(M), where c_j is the sum
of j x j principal minors.  This package provides

* spectra:   eigenvalue-sequence type, generators, head/tail splits;
* esp:       elementary symmetric polynomial calculus (recursion, closed
             forms, convolution/scaling rules, fast dyadic path);
* psd:       PSD matrix type (eigendecomposed once, on construction),
             CUR assembly (a read-only array) and error, matrix/kernel
             ingestion;
* sampling:  exact volume sampler, exhaustive distribution, expected-error
             formula with its brute-force oracle, Monte Carlo estimate;
* bounds:    report rows: the exact ratio e_{k+1}/e_k beside its tail-sum
             and dyadic-majorant bounds, and figure data;
* cli:       the `volcur` command, the one module that formats output
             (CSV/TSV).

When volcur is the first code to import numpy, numpy's bundled OpenBLAS
loads with OPENBLAS_THREAD_TIMEOUT=20 unless the user set it, so idle BLAS
workers sleep within a millisecond instead of spinning for 0.1 s;
os.environ is left as it was.
"""
import os as _os
import sys as _sys

if "numpy" not in _sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in _os.environ:
    # OpenBLAS reads the timeout once, when it loads: an idle worker then
    # spins for 2**20 cycles (0.5 ms at 2.1 GHz) before it sleeps, not for
    # 2**28 (0.13 s) after every parallel call.  That still spans the gaps
    # between one eigensolve's BLAS calls: at OpenBLAS's minimum, 2**4,
    # each call waits for a sleeping worker to wake, and eigh at n = 1000
    # ran about 9% slower.  Thread count and work split are unchanged.
    _os.environ["OPENBLAS_THREAD_TIMEOUT"] = "20"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_THREAD_TIMEOUT"]

from .bounds import (
    BoundReport,
    bound_report,
    bound_reports,
    figure_rows,
)
from .errors import (
    BoundInapplicableError,
    CapExceededError,
    DegenerateDistributionError,
    DegenerateTailError,
    EigensolverError,
    NumericalError,
    RankDeficiencyError,
    SingularPivotError,
    ValidationError,
    VolcurError,
)
from .esp import (
    EspVector,
    esp_all,
    esp_convolve,
    esp_dyadic_convolution,
    esp_geometric_closed_form,
    esp_geometric_ratio,
    esp_marginals,
    esp_ratio,
    esp_ratio_head_tail,
    esp_ratios,
    esp_scale,
)
from .psd import (
    EigenDecomposition,
    PsdMatrix,
    cur_approximation,
    cur_error_nuclear,
    eigendecompose,
    gram_matrix,
    invariant_sums,
    load_matrix,
    optimal_error,
    read_array,
    rbf_kernel_matrix,
)
from .sampling import (
    ENUMERATION_CAP,
    VolumeDistribution,
    empirical_error,
    enumerate_distribution,
    expected_error_bruteforce,
    expected_error_exact,
    sample_subsets,
)
from .spectra import (
    DENSE_CAP,
    HeadTailSplit,
    PiecewiseDyadicSpectrum,
    Spectrum,
    generate_dyadic,
    generate_geometric,
    generate_power_law,
    load_spectrum,
    make_spectrum,
    parse_generator_spec,
    split_head_tail,
)

__version__ = "0.1.0"
