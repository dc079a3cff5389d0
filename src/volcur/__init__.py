"""volcur: volume-sampled CUR approximation of symmetric PSD matrices.

Rank-k skeleton (CUR) approximations built from subsets drawn with
probability proportional to det M[S,S] admit an exact expected-error
formula: E |M - M_S|_* = (k+1) c_{k+1}(M) / c_k(M), where c_j is the sum
of j x j principal minors.  This package provides

* spectra:   eigenvalue-sequence type, generators, head/tail splits;
* esp:       elementary symmetric polynomial calculus (recursion, closed
             forms, convolution/scaling rules, fast dyadic path);
* psd:       PSD matrix type (eigendecomposed once, on construction,
             it carries its eigenpairs), CUR assembly (a read-only array)
             and error, matrix/kernel ingestion;
* sampling:  exact volume sampler, exhaustive distribution, expected-error
             formula with its brute-force oracle, Monte Carlo estimate;
* bounds:    report rows: the exact ratio e_{k+1}/e_k beside its tail-sum
             and dyadic-majorant bounds, and figure data;
* cli:       the `volcur` command, the one module that formats output
             (CSV/TSV).

When volcur is the first code to import numpy, numpy's bundled OpenBLAS
loads with OPENBLAS_THREAD_TIMEOUT=20 unless the user set it, so idle BLAS
workers sleep within a millisecond instead of spinning for 0.1 s;
os.environ is left as it was.  Only then does the volcur command cache inputs.
"""
import os as _os
import sys as _sys

# What numpy's BLAS reads once, as it loads, to set its threads and kernels, and
# the CPUs it may use: part of _cache's key.  Unknown (None) where numpy came first.
_BLAS_SETTING = None if "numpy" in _sys.modules else (
    sorted(item for item in _os.environ.items()
           if item[0].startswith(("OPENBLAS_", "GOTO_", "OMP_", "MKL_", "BLIS_", "VECLIB_"))),
    len(_os.sched_getaffinity(0)) if hasattr(_os, "sched_getaffinity") else _os.cpu_count())

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

from .bounds import *
from .errors import *
from .esp import *
from .psd import *
from .sampling import *
from .spectra import *

__version__ = "0.1.0"
