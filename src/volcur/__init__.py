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
"""

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
