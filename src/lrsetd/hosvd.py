"""HOSVD, core truncation and reconstruction SNR.

Supports the motivation study: how sparse a truncated Tucker core can get
before the reconstruction quality degrades.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensor import frobenius, multilinear, unfold

__all__ = ["TuckerModel", "hosvd", "truncate_core", "reconstruction_snr"]


@dataclass(frozen=True)
class TuckerModel:
    """Core tensor plus per-mode factor matrices with orthonormal columns."""

    core: np.ndarray
    factors: list

    def reconstruct(self):
        return multilinear(self.core, self.factors)


def _left_singular_vectors(mat, r):
    # Gram eigenproblem: cheaper than an economy SVD when the unfolding is
    # short and wide, which is the common case here
    g = mat @ mat.T
    evals, evecs = np.linalg.eigh(g)
    order = np.argsort(evals)[::-1][:r]
    u = evecs[:, order]
    # deterministic sign: largest-magnitude entry of each column nonnegative
    for j in range(u.shape[1]):
        i = np.argmax(np.abs(u[:, j]))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
    return u


def hosvd(t, ranks):
    """Truncated higher-order SVD of `t` at the given per-mode ranks.

    factors[n] holds the leading ranks[n] left singular vectors of the
    mode-n unfolding; the core is the multilinear compression of `t`.
    Raises ValueError when `t` holds NaN or inf.
    """
    t = np.asarray(t, dtype=np.float64)
    # min and max carry any NaN or inf, without a full-size boolean mask
    if t.size and not (np.isfinite(t.min()) and np.isfinite(t.max())):
        raise ValueError("hosvd input must be finite, found NaN or inf")
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != t.ndim:
        raise ValueError(f"need {t.ndim} ranks, got {len(ranks)}")
    for r, d in zip(ranks, t.shape):
        if not 1 <= r <= d:
            raise ValueError(f"rank {r} out of range [1, {d}]")
    factors = [
        _left_singular_vectors(unfold(t, n), ranks[n]) for n in range(t.ndim)
    ]
    core = multilinear(t, [f.T for f in factors])
    return TuckerModel(core=core, factors=factors)


def truncate_core(model, tn):
    """Zero all core entries with magnitude strictly below `tn`.

    Returns the truncated model and the fraction of zero entries in the new
    core.
    """
    if tn < 0:
        raise ValueError(f"tn must be nonnegative, got {tn}")
    core = np.where(np.abs(model.core) < tn, 0.0, model.core)
    sparsity = float(np.count_nonzero(core == 0.0)) / core.size
    return TuckerModel(core=core, factors=model.factors), sparsity


def reconstruction_snr(truth, approx):
    """Reconstruction SNR in dB: 20*log10(||truth|| / ||approx - truth||).

    Returns ``math.inf`` for an exact reconstruction.
    """
    truth = np.asarray(truth, dtype=np.float64)
    approx = np.asarray(approx, dtype=np.float64)
    if truth.shape != approx.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {approx.shape}")
    ref = frobenius(truth)
    if ref == 0.0:
        raise ValueError("SNR undefined for an all-zero reference tensor")
    err = frobenius(approx - truth)
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(ref / err)
