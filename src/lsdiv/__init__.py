"""Logarithmic super divergence toolkit for discrete models.

Divergence evaluators, minimum-divergence estimation, influence-function
robustness analysis, chi-square-calibrated hypothesis tests and a seeded
Monte-Carlo harness.
"""

import numpy as _np

from .divergence import (
    DiscreteDensity,
    DivergenceInfiniteError,
    Psi,
    SupportAlignmentError,
    TiltParams,
    derive_exponents,
    gsd,
    ld,
    ldpd,
    lpd,
    lsd,
)
from .families import PoissonFamily, density_vector, moments_c_d
from .estimation import (
    EstimatorResult,
    empirical_frequencies,
    estimating_equation_residual,
    minimize_lsd,
    minimize_lsd_many,
    oracle_grid_minimize,
)
from .asymptotics import (
    AsymptoticSummary,
    BiasCurve,
    SingularityError,
    bias_curves,
    general_jk,
    if_first_order,
    if_second_order,
    model_jkxi,
    point_contaminated,
)
from .hypotest import (
    TestResult,
    curvature_a_beta,
    null_law,
    one_sample_statistic,
    one_sample_test,
    second_order_test_influence,
    two_sample_statistic,
    weighted_chisq_pvalue,
)
from .simulate import (
    Contamination,
    ContaminationScheme,
    SimKind,
    SimulationConfig,
    SimulationReport,
    contaminated_sample,
    emit_report,
    run_estimation_sim,
    run_testing_sim,
    sample_poisson,
)

__version__ = "0.1.0"

# The fits' short-lived arrays of up to a few hundred KiB belong on the heap.
# glibc's malloc serves a block of 128 KiB or more by mmap until it frees
# such a block, which raises that threshold to the block's size and the
# heap's trim threshold to twice that.  Nothing the package imports frees
# such a block, so those arrays would be mapped and unmapped anew, about
# 500 minor page faults per pass of perfbench's est_table against 1.
# Freeing one 1 MiB array here sets that state; other allocators ignore it.
_np.empty(1 << 17)
del _np
