"""ADMM solver for the low-rank and sparse enhanced Tucker completion model.

Minimizes, over the Tucker factors X = (X_0, ..., X_{N-1}) and core S of
an N-th-order tensor,

    sum_i omega_i * ||A_i W_{i,(i)}||_F^2      (spatio-temporal smoothness)
  + sum_i alpha_i * ||Y_i||_*                  (factor low-rankness)
  + sigma * ||S||_1                            (core sparsity)
  + lam/2 * ||[[S; X_0, ..., X_{N-1}]] - Z||_F^2   (decomposition fit)

subject to W_i = Z, Y_i = X_i and the data constraint that Z agrees with the
observations. One iteration updates the blocks in the order
X -> Y -> S -> Z -> W -> duals; the X sub-blocks run Gauss-Seidel, everything
else is separable per mode.

The split W_i = Z exists only to give the smoothness term an easy
subproblem. For a mode with omega_i = 0 the W and dual steps force W_i = Z
and U_i = 0 after every iteration, so the solver keeps W_i and U_i only for
the smoothed modes (omega_i > 0) and lets Z stand in for the others.

A_i is always the first-order difference matrix of mode i and is never
stored: the penalty applies it as differences along axis i, and the W
subproblem matrix [beta*I + 2*omega_i*A_i^T A_i] is tridiagonal, so W_i
comes from an O(n) sweep along that axis.

Each block is one public function, ``update_factors``, ``update_y``,
``update_core``, ``update_z``, ``update_w`` and ``update_duals``, and
:func:`solve` calls exactly these, once each per iteration. Each
full-size product is built once and reduced to a scalar in the block that
builds it, and a block returns its Lagrangian term: ``update_y`` the
nuclear norms, ``update_z`` the fit term from the only reconstruction
[[S; X]], and ``update_duals`` the penalty terms; the sparsity term is
read off S and each smoothness term omega_i*||A_i W_i||_F^2 as
<W_i, U_i>/2, since the W and dual steps leave U_i = 2*omega_i*A_i^T A_i W_i.
``update_factors`` forms each Gram X_i^T X_i once, after X_i changes,
and returns the Grams with its partial contraction of Z, which
``update_core`` takes. :func:`augmented_lagrangian` computes the same
value from scratch, the smoothness terms from differences along each
axis. The nuclear norms of ``update_y`` and :func:`objective_value` come
from the eigenvalues of the r_i x r_i Grams, with an SVD only where a
Gram is too ill-conditioned (see :mod:`lrsetd.kernels`). No full-size
array is scanned for NaN or inf: the factor-sized subproblem inputs are
checked, and every state array enters the trace Lagrangian or the
relative change, which are checked as scalars.

Memory plan: the state keeps the observed values of M, which
:func:`init_state` gathers once, and two full-size buffers, the spare
and the scratch, which the first block that needs them allocates; from
then on an iteration allocates nothing full-size. The Z step writes the
new Z into the spare, which takes the previous Z in exchange, so the
stopping test's difference Z_k - Z_{k-1} overwrites it. The W and dual
steps write W_i and U_i in place; the dual step forms each gap Z - W_i
in the scratch, which also holds the W sweep's copy of a strided axis
and the reconstruction [[S; X]]. The factor sweep's mode products of Z,
and the reconstruction's smaller ones, go into pieces of buffers that
are dead at that point. What an iteration still allocates is factor- or
core-sized, or the matrix product inside a middle-mode product.

The order N is the tensor's: every block loops over its modes, and the
per-mode fields of :class:`SolverConfig` must have one value per mode.

Every solve starts from the same point: Z is the zero-filled observation,
each factor X_i is the orthonormal Q of a fixed-seed Gaussian draw, and the
core is the multilinear compression of Z. That start costs O(tensor) at any
mode length, where a truncated HOSVD of Z would form I_i x I_i Grams.
"""

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .kernels import (
    _nuclear_norm,
    _svd_shrink,
    soft_shrink,
    tridiag_ldl,
    tridiag_solve,
)
from .tensor import frobenius, inner, mode_product, multilinear, unfold

__all__ = [
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "CompletionReport",
    "NumericalError",
    "PRESETS",
    "preset_config",
    "default_ranks",
    "init_state",
    "update_factors",
    "update_y",
    "update_core",
    "update_z",
    "update_w",
    "update_duals",
    "augmented_lagrangian",
    "objective_value",
    "solve",
]


class NumericalError(RuntimeError):
    """Raised when the iteration produces non-finite values."""


# Parameter presets used throughout the reference experiments. Every mode
# carrying omega_i > 0 is smoothed by its first-order difference matrix.
PRESETS = {
    "traffic-random": dict(omega=(0.0, 1.0, 2e-3)),
    "traffic-wholeday": dict(omega=(0.0, 1.0, 1.0)),
    "image": dict(omega=(1.0, 1.0, 0.0)),
}


def _shape(value):
    """``np.shape(value)``, or None for a ragged nesting such as
    ((1, 2), 3, 4), where numpy raises its own ValueError."""
    try:
        return np.shape(value)
    except ValueError:
        return None


@dataclass(frozen=True)
class SolverConfig:
    """All scalars of the model plus run policy.

    `alpha`, `omega` and `ranks` hold one value per mode of the tensor;
    the defaults and :data:`PRESETS` are third-order. Each mode with
    omega_i > 0 is smoothed by its first-order difference matrix A_i.
    A run stops after iteration k when
    ||Z_k - Z_{k-1}||_F / max(||Z_k||_F, 1) <= tol, or after max_iter
    iterations.
    """

    ranks: tuple | None = None
    alpha: tuple = (1 / 3, 1 / 3, 1 / 3)
    sigma: float = 1.0
    lam: float = 1e-2
    beta: float = 0.1
    omega: tuple = (0.0, 0.0, 0.0)
    tol: float = 1e-5
    max_iter: int = 250

    def __post_init__(self):
        # alpha counts the modes; the other per-mode fields must match it
        modes = _shape(self.alpha)
        for name in ("alpha", "omega", "ranks"):
            value = getattr(self, name)
            if value is None and name == "ranks":
                continue
            if (
                modes is None
                or len(modes) != 1
                or not modes[0]
                or _shape(value) != modes
            ):
                raise ValueError(
                    "alpha, omega and ranks need one value per mode, as "
                    f"many as alpha has; got {name}={value!r}"
                )
        integers = (self.max_iter, *(self.ranks or ()))
        if not all(
            isinstance(v, numbers.Integral) and not isinstance(v, bool)
            for v in integers
        ):
            raise ValueError("ranks and max_iter must be integers")
        reals = (self.lam, self.beta, self.sigma, self.tol, *self.alpha)
        if not all(
            isinstance(v, numbers.Real)
            and not isinstance(v, bool)
            and math.isfinite(v)
            for v in (*reals, *self.omega)
        ):
            raise ValueError(
                "lam, beta, sigma, tol, alpha and omega must be finite numbers"
            )
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.sigma < 0 or any(a < 0 for a in self.alpha) or any(
            w < 0 for w in self.omega
        ):
            raise ValueError("sigma, alpha and omega must be nonnegative")
        # every block reads it each iteration; an attribute, not a field, so
        # fields(), asdict() and equality see the eight fields alone
        object.__setattr__(
            self,
            "_smoothed",
            tuple(i for i, w in enumerate(self.omega) if w > 0),
        )

    def smoothed_modes(self):
        """Modes with omega_i > 0: the only ones that carry W_i, U_i and a
        smoothing term."""
        return self._smoothed


def preset_config(name, **overrides):
    """Build a :class:`SolverConfig` from the fields of ``PRESETS[name]``
    plus `overrides`."""
    if not isinstance(name, str) or name not in PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        )
    fields = dict(PRESETS[name])
    fields.update(overrides)
    return SolverConfig(**fields)


def default_ranks(dims):
    """Heuristic Tucker ranks: ceil(I_n / 4) clamped to [1, I_n]."""
    return tuple(min(max(1, math.ceil(d / 4)), d) for d in dims)


@dataclass
class SolverState:
    """All block variables of one run, the observed values, the
    iteration-invariant W solve and the blocks' two full-size buffers.

    The per-mode lists `w`, `u` and `w_ldl` have one entry per mode and hold
    None at every mode with omega_i = 0; index them by mode. The blocks
    write the full-size arrays in place, and the Z step hands the previous
    Z to the spare buffer, so a caller copies what it keeps.
    """

    x: list  # factor matrices X_i, I_i x r_i
    y: list  # auxiliary factors Y_i
    t: list  # duals for X_i = Y_i
    s: np.ndarray  # core, r_0 x ... x r_{N-1}
    z: np.ndarray  # completed tensor estimate
    w: list  # auxiliary tensors W_i, full size, smoothed modes only
    u: list  # duals for Z = W_i, smoothed modes only
    # LDL^T of the tridiagonal [beta*I + 2*omega_i*A_i^T A_i], O(n) numbers
    w_ldl: list
    observed: np.ndarray  # the values of M at mask.c_flat_index()
    iteration: int = 0
    # full-size buffers, None until a block needs them (see the memory plan)
    spare: np.ndarray | None = None
    scratch: np.ndarray | None = None

    @property
    def dims(self):
        return self.z.shape

    @property
    def ranks(self):
        return self.s.shape


def _resolve_ranks(cfg, dims):
    ranks = cfg.ranks if cfg.ranks is not None else default_ranks(dims)
    ranks = tuple(int(r) for r in ranks)
    for r, d in zip(ranks, dims):
        if not 1 <= r <= d:
            raise ValueError(f"rank {r} out of range [1, {d}]")
    return ranks


def init_state(m, mask, cfg):
    """Build the starting point for :func:`solve`.

    Z starts as the zero-filled observation; the factors are orthonormal
    draws from ``np.random.default_rng(0)``, one QR of an I_i x r_i Gaussian
    matrix per mode in mode order, so every solve starts alike; the core is
    the multilinear compression of Z; W_i copy Z on the smoothed modes; all
    duals are zero. Raises ValueError when the tensor's order is
    not the config's number of modes, an observed entry is not finite or
    the observed data's squared Frobenius norm overflows.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != len(cfg.alpha):
        raise ValueError(
            f"config has {len(cfg.alpha)} modes, tensor has order {m.ndim}"
        )
    if m.shape != mask.dims:
        raise ValueError(f"tensor {m.shape} vs mask {mask.dims}")
    dims = m.shape
    ranks = _resolve_ranks(cfg, dims)

    index = mask.c_flat_index()
    observed = np.take(m, index)
    # values off the mask are ignored, so only observed ones are checked
    if not np.all(np.isfinite(observed)):
        raise ValueError("observed entries must be finite, found NaN or inf")
    if not math.isfinite(inner(observed, observed)):
        raise ValueError(
            "observed entries too large: their squared norm overflows float64"
        )
    z0 = np.zeros(dims)
    z0.reshape(-1)[index] = observed

    rng = np.random.default_rng(0)
    x0 = []
    for d, r in zip(dims, ranks):
        q, _ = np.linalg.qr(rng.standard_normal((d, r)))
        x0.append(q)
    s0 = multilinear(z0, [f.T for f in x0])

    w, u, w_ldl = [None] * m.ndim, [None] * m.ndim, [None] * m.ndim
    for i in cfg.smoothed_modes():
        w[i] = z0.copy()
        u[i] = np.zeros(dims)
        # A_i^T A_i is tridiag(-1, (1, 2, ..., 2), -1); the shifted matrix
        # is factored once
        two_omega = 2.0 * cfg.omega[i]
        diag = np.full(dims[i], cfg.beta + two_omega)
        diag[1:] += two_omega
        w_ldl[i] = tridiag_ldl(diag, np.full(dims[i] - 1, -two_omega))

    return SolverState(
        x=x0,
        y=[f.copy() for f in x0],
        t=[np.zeros_like(f) for f in x0],
        s=s0,
        z=z0,
        w=w,
        u=u,
        w_ldl=w_ldl,
        observed=observed,
    )


def _contract_others(t, mats, i):
    """unfold(t x_j mats[j]^T for every j != i, mode i).

    With the symmetric Grams X_j^T X_j this is T_(i) @ kron(G_hi, G_lo),
    and the Kronecker matrix is never materialized.
    """
    for j in range(len(mats)):
        if j != i:
            t = mode_product(t, mats[j].T, j)
    return unfold(t, i)


def _buffers(state):
    """The state's spare and scratch buffers, allocated by the first block
    that needs them, so that :func:`init_state` holds only the start."""
    if state.spare is None:
        state.spare, state.scratch = np.empty(state.dims), np.empty(state.dims)
    return state.spare, state.scratch


class _Pool:
    """Mode products written into consecutive C-contiguous pieces of the
    given buffers, handed out in order and never taken back: the products
    of one block, which all live until the block ends. A product that no
    buffer has room for is allocated."""

    def __init__(self, *buffers):
        self._free = [b.reshape(-1) for b in buffers]  # views: C order

    def product(self, t, matrix, mode):
        """``mode_product(t, matrix, mode)`` in the next piece that fits."""
        shape = (*t.shape[:mode], matrix.shape[0], *t.shape[mode + 1 :])
        size, out = math.prod(shape), None
        for k, free in enumerate(self._free):
            if free.size >= size:
                self._free[k] = free[size:]
                out = free[:size].reshape(shape)
                break
        return mode_product(t, matrix, mode, out=out)


def _require_finite(state, what, *arrays):
    """Raise NumericalError when a factor-sized array of the iteration in
    progress holds NaN or inf. Non-finite full-size state reaches these
    arrays or the trace scalars, so no full-size array is scanned."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise NumericalError(
                f"non-finite {what} at iteration {state.iteration + 1}"
            )


def update_factors(state, cfg):
    """Gauss-Seidel update X_0 -> X_1 -> ... -> X_{N-1} (in place).

    Each X_i is the exact minimizer of its subproblem given the current
    remaining blocks:

        X_i = [lam*C_i(Z, X)*S_(i)^T + beta*Y_i - T_i]
              [beta*I + lam*C_i(S, G)*S_(i)^T]^{-1}

    with C_i(T, M) = unfold(T x_j M_j^T for j != i, i) and G_j = X_j^T X_j
    taken from the factors as they stand at step i. The sweep reads the
    full-size Z twice at any order and forms each Gram once; it returns
    the last step's Z x_j X_j^T over j < N-1 and the Grams of the new
    factors, which :func:`update_core` takes.

    The sweep's mode products of Z are written into the state's two
    full-size buffers as far as they fit, so the returned product lives
    there until :func:`update_z` overwrites them.
    """
    x, s = state.x, state.s
    pool = _Pool(*_buffers(state))
    grams = [None] + [f.T @ f for f in x[1:]]  # step 0 does not read G_0
    # X_j moves only at step j, so the suffix Z x_j X_j^T over j >= k,
    # built once from the last mode down, is what step k-1 needs; the
    # stack holds Z itself at the bottom and the suffix from mode 1 on top
    suffixes = [state.z]
    for k in range(len(x) - 1, 0, -1):
        suffixes.append(pool.product(suffixes[-1], x[k].T, k))
    for i in range(len(x)):
        # z_others = C_i(Z, X) before unfolding, with the new X_j, j < i
        z_others = suffixes.pop()
        for j in range(i):
            z_others = pool.product(z_others, x[j].T, j)
        s_i = unfold(s, i)
        rhs = cfg.lam * unfold(z_others, i) @ s_i.T
        rhs += cfg.beta * state.y[i] - state.t[i]
        lhs = cfg.beta * np.eye(s_i.shape[0]) + cfg.lam * _contract_others(
            s, grams, i
        ) @ s_i.T
        lhs = 0.5 * (lhs + lhs.T)
        _require_finite(state, f"X_{i} subproblem", lhs, rhs)
        # X @ lhs = rhs; lhs >= beta*I is SPD by construction, so no check
        x[i] = np.linalg.solve(lhs, rhs.T).T
        grams[i] = x[i].T @ x[i]
    return z_others, grams


def update_y(state, cfg):
    """Nuclear-norm prox on each auxiliary factor (in place):
    Y_i = svd_shrink(X_i + T_i/beta, alpha_i/beta). Returns
    sum_i alpha_i*||Y_i||_* of the new Y."""
    val = 0.0
    for i in range(len(state.x)):
        point = state.x[i] + state.t[i] / cfg.beta
        _require_finite(state, f"Y_{i} prox input", point)
        state.y[i], nuclear = _svd_shrink(point, cfg.alpha[i] / cfg.beta)
        val += cfg.alpha[i] * nuclear
    return val


def update_core(state, cfg, z01=None, grams=None):
    """One proximal-gradient step on the core tensor (in place).

    The smooth part is phi(S) = 0.5*||[[S; X]] - Z||_F^2 with
    gradient S x_j G_j - Z x_j X_j^T over all modes, G_j = X_j^T X_j, and
    Lipschitz constant the product of the Grams' spectral norms. A zero
    Lipschitz constant (all-zero factors) skips the step.

    `z01` = Z x_j X_j^T over j < N-1 and the Grams are what
    :func:`update_factors` returns; pass both or neither, in which case
    they are built from the current factors. Returns the ascending
    eigenvalues of each Gram, which :func:`objective_value` takes for the
    nuclear norms of the same factors.
    """
    x = state.x
    if z01 is None:
        z01 = state.z
        for j in range(len(x) - 1):
            z01 = mode_product(z01, x[j].T, j)
        grams = [f.T @ f for f in x]
    spectra = [np.linalg.eigvalsh(g) for g in grams]
    # the spectral norm of a Gram is its largest eigenvalue
    zeta = math.prod(lam[-1] for lam in spectra)
    if zeta == 0.0:
        return spectra
    grad = multilinear(state.s, grams) - mode_product(z01, x[-1].T, len(x) - 1)
    state.s = soft_shrink(state.s - grad / zeta, cfg.sigma / (cfg.lam * zeta))
    return spectra


def _fit_term(recon, z, cfg):
    """lam/2 * ||recon - Z||_F^2 for the reconstruction [[S; X]], which is
    overwritten by the difference."""
    gap = np.subtract(recon, z, out=recon).ravel(order="K")  # no copy
    return (cfg.lam / 2.0) * float(gap @ gap)


def update_z(state, cfg, m, mask):
    """Closed-form Z update with the observation constraint.

    Off the observed set, with Zhat = [[S; X]] the current Tucker
    reconstruction and k = N - (number of smoothed modes),

        Z = (beta*((lam/beta)*Zhat + sum_i W_i + k*Z_prev) - sum_i U_i)
            / (lam + N*beta),

    evaluated in that order as in-place passes over one buffer, the k
    copies of Z_prev added one at a time; on it, Z = M exactly. The sums
    run over the smoothed modes: an unsmoothed mode enters with
    W_i = Z_prev (the Z before this update) and U_i = 0, the values its W
    and dual steps would have left. Returns the fit term
    lam/2*||Zhat - Z||_F^2 of the new Z, so the reconstruction is built
    once per iteration.

    `m` and `mask` are the ones the state was built from: Z takes the
    observed values :func:`init_state` gathered, so `m` is not read again,
    and a shape or observed count other than the state's is a ValueError.
    The new Z is written into the state's spare buffer, which then takes
    Z_prev in exchange; the reconstruction goes into its scratch.
    """
    dims, n = state.dims, state.observed.size
    if (np.shape(m), mask.dims, mask.n_observed) != (dims, dims, n):
        raise ValueError(
            f"tensor {np.shape(m)} and {mask!r} are not those of the state, "
            f"{dims} with {n} observed"
        )
    spare, scratch = _buffers(state)
    order = len(state.x)
    smoothed = cfg.smoothed_modes()
    # from the last mode to the first, so the full-size product is the
    # mode-0 one into the scratch; the smaller ones go where Z will
    pool = _Pool(spare)
    recon = state.s
    for mode in range(order - 1, 0, -1):
        recon = pool.product(recon, state.x[mode], mode)
    recon = mode_product(recon, state.x[0], 0, out=scratch)
    acc = np.multiply(recon, cfg.lam / cfg.beta, out=spare)
    for i in smoothed:
        acc += state.w[i]
    for _ in range(order - len(smoothed)):
        acc += state.z
    acc *= cfg.beta
    for i in smoothed:
        acc -= state.u[i]
    acc /= cfg.lam + order * cfg.beta
    # a view: the spare is C-contiguous
    acc.reshape(-1)[mask.c_flat_index()] = state.observed
    # Z_prev becomes the spare; a Z in another layout, which a caller put
    # in the state, is copied, so the spare stays C-contiguous
    state.spare, state.z = np.ascontiguousarray(state.z), acc
    return _fit_term(recon, acc, cfg)


def update_w(state, cfg):
    """Smoothness-regularized W update (in place) on each smoothed mode:
    W_(i) = [beta*I + 2*omega_i*A_i^T A_i]^{-1} [beta*Z_(i) + U_(i)],
    with beta*Z + U_i written into W_i and solved there by a tridiagonal
    sweep along axis i, which copies a strided axis into the scratch."""
    for i in cfg.smoothed_modes():
        w = np.multiply(state.z, cfg.beta, out=state.w[i])
        w += state.u[i]
        tridiag_solve(state.w_ldl[i], w, i, _buffers(state)[1])


def _penalty(dual, gap, beta):
    """<dual, gap> + beta/2*||gap||^2, one constraint's augmented term."""
    return inner(dual, gap) + (beta / 2.0) * inner(gap, gap)


def update_duals(state, cfg):
    """Dual ascent (in place): U_i += beta*(Z - W_i) on the smoothed modes,
    T_i += beta*(X_i - Y_i) on all. Returns the penalty terms of both
    constraint families at the new duals, from the gaps the step forms
    anyway.

    Each gap Z - W_i is formed in the state's scratch buffer, and its
    penalty at the new dual is taken before the step as
    <U_i, gap> + 1.5*beta*||gap||^2."""
    val = 0.0
    for i in cfg.smoothed_modes():
        gap = np.subtract(state.z, state.w[i], out=_buffers(state)[1])
        val += inner(state.u[i], gap) + 1.5 * cfg.beta * inner(gap, gap)
        gap *= cfg.beta
        state.u[i] += gap
    for i in range(len(state.x)):
        gap = state.x[i] - state.y[i]
        state.t[i] = state.t[i] + cfg.beta * gap
        val += _penalty(state.t[i], gap, cfg.beta)
    return val


def _smoothing_parts(t, axis):
    """A_i applied along `axis` of `t`, split into pieces whose squared
    norms sum to ||A_i T_(i)||_F^2 (and, for a matrix along axis 0, whose
    Grams sum to (A_i t)^T (A_i t)): the differences of neighbouring slices
    and the last slice."""
    # basic slicing is what np.diff does, without its per-call axis
    # handling; the last slice is a view
    head = (slice(None),) * axis
    after, before = t[head + (slice(1, None),)], t[head + (slice(None, -1),)]
    return after - before, t[head + (slice(-1, None),)]


def _lagrangian(state, cfg, nuclear, penalties, fit):
    """The augmented Lagrangian of a state that the W and dual steps just
    left, from the Y, dual and Z blocks' terms plus the sparsity term read
    off S and the smoothness terms read off W_i and U_i.

    The W step solves [beta*I + 2*omega_i*A_i^T A_i] W_i = beta*Z + U_i and
    the dual step adds beta*(Z - W_i) to U_i, so the new dual is
    U_i = 2*omega_i*A_i^T A_i W_i (ADMM's dual feasibility for the W_i
    block) and omega_i*||A_i W_i||_F^2 = <W_i, U_i>/2, one inner product.
    """
    val = nuclear + penalties + fit + cfg.sigma * np.abs(state.s).sum()
    for i in cfg.smoothed_modes():
        val += 0.5 * inner(state.w[i], state.u[i])
    return float(val)


def augmented_lagrangian(state, cfg):
    """Value of the augmented Lagrangian at the current state, computed
    from scratch, the smoothness terms from differences along each axis.
    :func:`solve` sums the same terms from its blocks."""
    smoothed = cfg.smoothed_modes()
    nuclear = sum(
        a * np.linalg.svd(y, compute_uv=False).sum()
        for a, y in zip(cfg.alpha, state.y)
    )
    penalties = sum(
        _penalty(state.u[i], state.z - state.w[i], cfg.beta) for i in smoothed
    ) + sum(
        _penalty(t, x - y, cfg.beta)
        for t, x, y in zip(state.t, state.x, state.y)
    )
    fit = _fit_term(multilinear(state.s, state.x), state.z, cfg)
    smoothness = sum(
        cfg.omega[i] * inner(p, p)
        for i in smoothed
        for p in _smoothing_parts(state.w[i], i)
    )
    sparsity = cfg.sigma * np.abs(state.s).sum()
    return float(nuclear + penalties + fit + smoothness + sparsity)


def objective_value(state, cfg, grams=None, spectra=None):
    """Value of the relaxed model objective at (X, S):
    Psi(X, S) + sum_i alpha_i*||X_i||_* + sigma*||S||_1.

    Each smoothness term ||S x_i (A_i X_i) x_{j!=i} X_j||_F^2 is evaluated
    at core size as <S, S x_j G_j> with G_j = X_j^T X_j and
    G_i = (A_i X_i)^T (A_i X_i). The nuclear norms come from the
    eigenvalues of the same Grams G_j, or from an SVD of X_j when G_j is
    too ill-conditioned (see :mod:`lrsetd.kernels`).

    `grams` and `spectra` are the Grams G_j and their ascending
    eigenvalues as :func:`update_factors` and :func:`update_core` return
    them; pass both or neither, in which case they are built from the
    current factors."""
    val = cfg.sigma * np.abs(state.s).sum()
    if grams is None:
        grams = [f.T @ f for f in state.x]
        spectra = [np.linalg.eigvalsh(g) for g in grams]
    for a, x, lam in zip(cfg.alpha, state.x, spectra):
        val += a * _nuclear_norm(x, lam)
    for i in cfg.smoothed_modes():
        parts = _smoothing_parts(state.x[i], 0)
        g = list(grams)
        g[i] = sum(p.T @ p for p in parts)
        val += cfg.omega[i] * inner(state.s, multilinear(state.s, g))
    return float(val)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    rel_change: float
    lagrangian: float
    objective: float
    seconds: float


@dataclass
class CompletionReport:
    """Result of one :func:`solve` run."""

    recovered: np.ndarray
    trace: list
    iterations: int
    termination: str  # "tol" or "max_iter"
    total_seconds: float


def solve(m, mask, cfg, callback=None):
    """Run the full ADMM to completion.

    The run stops after iteration k when the relative change
    ||Z_k - Z_{k-1}||_F / max(||Z_k||_F, 1) is at most ``cfg.tol``, with
    Z_0 the zero-filled observations, or after ``cfg.max_iter``
    iterations.

    Parameters
    ----------
    m : ndarray
        Observed tensor; only its entries on the mask are read.
    mask : ObservationMask
    cfg : SolverConfig
    callback : callable, optional
        Called as ``callback(state)`` after every full iteration; intended
        for diagnostics. Later iterations overwrite the state's full-size
        arrays in place, so a callback copies those it keeps.

    Returns
    -------
    CompletionReport

    Raises
    ------
    NumericalError
        When an iteration produces NaN or inf, naming that iteration.
    """
    start = time.perf_counter()
    state = init_state(m, mask, cfg)
    trace = []
    termination = "max_iter"
    for k in range(1, cfg.max_iter + 1):
        it_start = time.perf_counter()
        # each full-size product is built once and reduced to a scalar
        # inside the block that built it; the Lagrangian sums those scalars
        z01, grams = update_factors(state, cfg)
        nuclear = update_y(state, cfg)
        spectra = update_core(state, cfg, z01, grams)
        fit = update_z(state, cfg, m, mask)
        update_w(state, cfg)
        penalties = update_duals(state, cfg)
        state.iteration = k

        # update_z left Z_{k-1} in the spare buffer, which takes the change
        change = np.subtract(state.z, state.spare, out=state.spare)
        rel_change = frobenius(change) / max(frobenius(state.z), 1.0)
        lagrangian = _lagrangian(state, cfg, nuclear, penalties, fit)
        # every state array enters the Lagrangian's terms or, for Z, the
        # relative change, so NaN or inf anywhere in the state shows here
        if not (math.isfinite(lagrangian) and math.isfinite(rel_change)):
            raise NumericalError(
                f"non-finite values in solver state at iteration {k}"
            )
        trace.append(
            IterationRecord(
                iteration=k,
                rel_change=rel_change,
                lagrangian=lagrangian,
                objective=objective_value(state, cfg, grams, spectra),
                seconds=time.perf_counter() - it_start,
            )
        )
        if callback is not None:
            callback(state)
        if rel_change <= cfg.tol:
            termination = "tol"
            break

    return CompletionReport(
        recovered=state.z,
        trace=trace,
        iterations=len(trace),
        termination=termination,
        total_seconds=time.perf_counter() - start,
    )
