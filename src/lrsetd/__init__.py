"""Tensor completion via low-rank and sparse enhanced Tucker decomposition.

Importing the package changes no process state. numpy's BLAS reads its
thread count once, when numpy is first imported, so cap it with
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS in the environment the process
starts with.
"""

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
