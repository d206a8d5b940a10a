"""Tensor completion via low-rank and sparse enhanced Tucker decomposition."""

from .hosvd import TuckerModel, hosvd, reconstruction_snr, truncate_core
from .kernels import (
    SvdFactors,
    soft_shrink,
    spd_solve,
    svd_reduced,
    svd_shrink,
    toeplitz_diff,
)
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
    fold,
    frobenius,
    inner,
    mode_product,
    multilinear,
    unfold,
)

__version__ = "0.1.0"
