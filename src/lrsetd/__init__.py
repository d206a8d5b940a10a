"""Tensor completion via low-rank and sparse enhanced Tucker decomposition.

Setting LRSETD_THREADS caps the BLAS thread pools; a BLAS variable that is
already set wins.
"""

import os

# BLAS reads these once, when numpy is first imported, which the submodule
# imports below do; they have no effect if numpy was imported before lrsetd
if "LRSETD_THREADS" in os.environ:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, os.environ["LRSETD_THREADS"])

from .hosvd import TuckerModel, hosvd, reconstruction_snr, truncate_core
from .kernels import soft_shrink, svd_shrink
from .masks import MissingSpec, nmae, psnr, random_mask, rse, structured_mask
from .solver import (
    CompletionReport,
    NumericalError,
    PRESETS,
    SolverConfig,
    default_ranks,
    preset_config,
    solve,
)
from .tensor import (
    ObservationMask,
    frobenius,
    inner,
    mode_product,
    multilinear,
    unfold,
)

__version__ = "0.1.0"
