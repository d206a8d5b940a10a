"""ADMM solver for the low-rank and sparse enhanced Tucker completion model.

Minimizes, over the Tucker factors X = (X_0, ..., X_{N-1}) and core S of
an N-th-order tensor,

    sum_i omega_i * ||A_i W_{i,(i)}||_F^2      (spatio-temporal smoothness)
  + sum_i alpha_i * ||Y_i||_*                  (factor low-rankness)
  + sigma * ||S||_1                            (core sparsity)
  + lam/2 * ||[[S; X_0, ..., X_{N-1}]] - Z||_F^2   (decomposition fit)

subject to W_i = Z, Y_i = X_i and the data constraint that Z agrees with the
observations. One iteration updates the blocks in the order
X -> S -> Y -> Z -> W -> duals; the X sub-blocks run Gauss-Seidel, everything
else is separable per mode. The paper's cycle runs Y before S, but the two
steps share no input (the Y_i prox reads X_i and t_i, the core step X, Z and
S), so either order gives the same iterates bit for bit, and with S first
the core step consumes the factor sweep's products as soon as they exist.

The split W_i = Z exists only to give the smoothness term an easy
subproblem. For a mode with omega_i = 0 the W and dual steps force W_i = Z
and U_i = 0 after every iteration, so the solver keeps W_i and U_i only for
the smoothed modes (omega_i > 0) and lets Z stand in for the others.

The duals are kept scaled (Boyd et al. 2011, section 3.1.1): the state's
u_i is U_i/beta and its t_i is T_i/beta, so no step multiplies a dual or a
gap by beta, and :func:`set_beta` rescales them when beta changes.

A_i is always the first-order difference matrix of mode i and is never
stored: the penalty applies it as differences along axis i, and the W
subproblem matrix [I + (2*omega_i/beta)*A_i^T A_i] is tridiagonal, so W_i
comes from an O(n) sweep along that axis, or, on an axis of at most 32,
from a matrix product by the inverse, built once (on a middle axis, one
batched product; see :func:`lrsetd.kernels._route`).

Each block is one public function, ``update_factors``, ``update_core``,
``update_y``, ``update_z``, ``update_w`` and ``update_duals``, and
:func:`step`, one iteration, calls exactly these, once each. A block
returns only what it forms anyway: ``update_factors`` the ends of its
chains, Z x_j X_j^T and S x_j G_j over all modes, and the Grams
G_j = X_j^T X_j, the three inputs that ``update_core`` requires;
``update_y`` the rank each prox keeps; and
``update_duals`` the primal residuals max_i ||Z - W_i||_F and
max_i ||X_i - Y_i||_F of the gaps its ascent adds. No block forms a term
of the Lagrangian or the objective, which :func:`augmented_lagrangian`
and :func:`objective_value` compute from scratch. No full-size array is
scanned for NaN or inf: the factor-sized subproblem inputs, the core and
the t_i are checked whole, every other state array reaches the relative
change of Z or a primal residual, which are checked as scalars, and the
u_i ascent raises on overflow.

Memory plan: the state keeps the observed values of M, which
:func:`init_state` gathers once, their positions (the mask's cached
index, not a copy) and two full-size buffers, the spare and the
scratch, which the first block that needs them allocates; from
then on an iteration allocates nothing full-size. The Z step writes the
new Z into the spare, which takes the previous Z in exchange, so the
stopping test's difference Z_k - Z_{k-1} overwrites it. The W and dual
steps write W_i and u_i in place; the dual step forms each slab of a
gap Z - W_i in one slab-sized piece of the scratch, which also holds the
reconstruction [[S; X]] and, in the W step, either the swapped copy of a
strided axis or the right side Z + u_i, which the matrix product by
T_i^{-1} or the sweep's first scaling pass reads into W_i. The
elementwise chains over full-size arrays, the Z step's after the
reconstruction, the W step's right side and product on a short axis past
the first, the dual step's gap, its squared norm and its ascent, and the
stopping test's difference and norms, run slab by slab along axis 0
(:func:`lrsetd.tensor._slabs`), so each slab's operands stay in cache
from one pass to the next. The factor sweep's
intermediates (the prefixes of Z, the chains of S and the products on
Z's side) and the reconstruction's smaller products go into pieces of
buffers that are dead at that point. Each of them is one matmul of
C-order reshapes, on a first or last axis (:func:`lrsetd.tensor._lead`
and :func:`lrsetd.tensor._trail`) or, on Z's side of a step past the
first, batched over the blocks of a middle axis of a prefix; none moves a
copy. What an iteration still allocates is factor- or core-sized, and
the sweep's chains die in the core step that follows it.

The order N is the tensor's: every block loops over its modes, and the
per-mode fields of :class:`SolverConfig` must have one value per mode.

The penalty beta in force is ``state.beta``, the only one the blocks and
:func:`augmented_lagrangian` read; ``cfg.beta`` is its start, and
:func:`set_beta` changes it, as the residual balancing of :func:`solve` does.

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
    _route,
    _soft_shrink,
    _svd_shrink,
    tridiag_ldl,
    tridiag_solve,
)
from .tensor import (
    _lead,
    _slabs,
    _trail,
    frobenius,
    inner,
    mode_product,
    multilinear,
)

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
    "set_beta",
    "step",
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

    `beta` is the start of the penalty in force, ``SolverState.beta``,
    which :func:`solve` balances when some mode is smoothed.
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
    """All block variables of one run, the observed values, the W solve
    at the penalty in force and the blocks' two full-size buffers.

    The per-mode lists `w`, `u` and `w_ldl` have one entry per mode and hold
    None at every mode with omega_i = 0; index them by mode. The duals `u`
    and `t` are scaled by the penalty in force: the unscaled duals are
    ``beta * u[i]`` and ``beta * t[i]``. The blocks write the full-size
    arrays in place, and the Z step hands the previous Z to the spare
    buffer, so a caller copies what it keeps.
    """

    x: list  # factor matrices X_i, I_i x r_i
    y: list  # auxiliary factors Y_i
    t: list  # scaled duals T_i/beta for X_i = Y_i
    s: np.ndarray  # core, r_0 x ... x r_{N-1}
    z: np.ndarray  # completed tensor estimate
    w: list  # auxiliary tensors W_i, full size, smoothed modes only
    u: list  # scaled duals U_i/beta for Z = W_i, smoothed modes only
    # kernels.TridiagLDL of the tridiagonal [I + (2*omega_i/beta)*A_i^T A_i]:
    # O(n) numbers, and its inverse when n <= 32 (see set_beta)
    w_ldl: list
    index: np.ndarray  # the mask's c_flat_index(): where M was observed
    observed: np.ndarray  # the values of M there
    # update_factors' side per step, True for the core's: _factor_plan
    plan: tuple
    # the penalty in force, the only one the blocks read: cfg.beta at the
    # start, then as set_beta changes it; w_ldl and the duals are scaled by it
    beta: float
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
    """Build the starting point for :func:`step`, at the penalty ``cfg.beta``.

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

    w, u = [None] * m.ndim, [None] * m.ndim
    for i in cfg.smoothed_modes():
        w[i] = z0.copy()
        u[i] = np.zeros(dims)

    state = SolverState(
        x=x0,
        y=[f.copy() for f in x0],
        t=[np.zeros_like(f) for f in x0],
        s=s0,
        z=z0,
        w=w,
        u=u,
        w_ldl=None,
        index=index,
        observed=observed,
        plan=_factor_plan(dims, ranks),
        beta=None,
    )
    set_beta(state, cfg, cfg.beta)
    return state


def set_beta(state, cfg, beta):
    """Put the penalty `beta` in force: ``state.beta`` takes it,
    ``state.w_ldl`` the W solve at it, and the scaled duals u_i and t_i
    are multiplied in place by the old beta over `beta`, so that the
    unscaled duals beta*u_i and beta*t_i stay as they were. Nothing
    changes when `beta` is in force already, and the first call, from
    :func:`init_state`, rescales nothing. Raises ValueError unless `beta`
    is positive and finite, and NumericalError when a rescaled dual
    overflows."""
    if beta == state.beta:
        return
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    if state.beta is not None:
        ratio = state.beta / beta
        duals = [state.u[i] for i in cfg.smoothed_modes()] + state.t
        try:
            with np.errstate(over="raise"):
                for dual in duals:
                    dual *= ratio
        except FloatingPointError:
            raise NumericalError(
                f"non-finite scaled duals at beta {beta!r}"
            ) from None
    state.beta, state.w_ldl = beta, [None] * len(state.dims)
    for i in cfg.smoothed_modes():
        # A_i^T A_i is tridiag(-1, (1, 2, ..., 2), -1)
        c, n = 2.0 * cfg.omega[i] / beta, state.dims[i]
        diag = np.full(n, 1.0 + c)
        diag[1:] += c
        state.w_ldl[i] = tridiag_ldl(diag, np.full(n - 1, -c))


def _buffers(state):
    """The state's spare and scratch buffers, allocated by the first block
    that needs them, so that :func:`init_state` holds only the start."""
    if state.spare is None:
        state.spare, state.scratch = np.empty(state.dims), np.empty(state.dims)
    return state.spare, state.scratch


def _norm(squares, fallback):
    """``math.sqrt(squares)``, a squared Frobenius norm summed over slabs,
    or, when that leaves :func:`lrsetd.tensor.frobenius`'s safe range
    (2**-400, inf) and is not NaN, ``fallback()``: the norm taken again
    at a safe scale."""
    n = math.sqrt(squares)
    return n if 2.0**-400 < n < math.inf or math.isnan(n) else fallback()


class _Pool:
    """Consecutive C-contiguous pieces of the given buffers, handed out in
    order and never taken back: the products of one block, which all live
    until the block ends. A piece that no buffer has room for is
    allocated."""

    def __init__(self, *buffers):
        self._free = [b.reshape(-1) for b in buffers]  # views: C order

    def piece(self, shape):
        """An uninitialized C-contiguous float64 array of `shape`, in the
        next piece that fits."""
        size = math.prod(shape)
        for k, free in enumerate(self._free):
            if free.size >= size:
                self._free[k] = free[size:]
                return free[:size].reshape(shape)
        return np.empty(shape)


def _require_finite(state, what, *arrays):
    """Raise NumericalError when a factor-sized array of the iteration in
    progress holds NaN or inf. Non-finite full-size state reaches these
    arrays or the trace scalars, so no full-size array is scanned."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise NumericalError(
                f"non-finite {what} at iteration {state.iteration + 1}"
            )


# what a byte read or written costs in flops in :func:`_factor_plan`: at
# one BLAS thread on a 2-core Xeon VM a large matmul ran at 46 GFLOP/s and
# a copy moved 14-24 GB/s, and with 8 the plan was the fastest of the
# possible ones, or within 5 % of it, at 15 shapes of orders 3 to 5
_FLOPS_PER_BYTE = 8


def _factor_plan(dims, ranks):
    """Which side each step of :func:`update_factors` builds its right
    side C_i(Z, X)*S_(i)^T from, chosen from `dims` and `ranks` alone:
    True for the core's side, False for Z's side, one entry per step.

    Step i contracts the prefix P_i = Z x_j X_j^T over j < i, which the
    steps share, with the factors X_j of the modes j > i and with S. The
    core's side forms K_i = S x_j X_j over j > i and multiplies it into
    P_i with one matmul; the K_i are a chain that starts at K_{N-1} = S,
    so a step on the core's side needs every K_j with j > i. Z's side
    contracts P_i with each X_j^T first and then with S. For the last
    step both sides are P_{N-1} against S, listed as True.

    A side costs its flops plus the bytes it reads and writes, those of a
    rotated copy of S included, weighted by _FLOPS_PER_BYTE; every product
    is one matmul, batched on a middle axis, so none moves a copy. The
    plan is the cheapest over the first step on the core's side, with each
    later step on its cheaper side.
    """
    order = len(dims)
    core = math.prod(ranks)
    # the sizes of P_i and K_i
    prefix = [math.prod((*ranks[:i], *dims[i:])) for i in range(order)]
    suffix = [
        math.prod((*ranks[: i + 1], *dims[i + 1 :])) for i in range(order)
    ]

    def cost(flops, entries):
        return flops + _FLOPS_PER_BYTE * 8 * entries  # float64 entries

    def core_side(i):
        entries = prefix[i] + suffix[i] + dims[i] * ranks[i]
        return cost(2 * prefix[i] * ranks[i], entries)

    def chain(i):  # K_i from K_{i+1}
        return cost(2 * suffix[i] * ranks[i + 1], suffix[i + 1] + suffix[i])

    def z_side(i):
        shape, total = [*dims[i:], *ranks[:i]], 0  # P_i, mode i first
        for j in range(order - 1, i, -1):
            size = math.prod(shape)
            out = size // dims[j] * ranks[j]
            total += cost(2 * out * dims[j], size + out)
            shape[j - i] = ranks[j]
        total += cost(2 * out * ranks[i], out + core + dims[i] * ranks[i])
        # S rotated so that mode i comes last, a copy on a middle mode
        return total + (cost(0, 2 * core) if i else 0)

    best = None
    for first in range(order):
        sides = [False] * first + [
            i == first or core_side(i) <= z_side(i)
            for i in range(first, order - 1)
        ]
        total = sum(
            core_side(i) if side else z_side(i) for i, side in enumerate(sides)
        ) + sum(chain(i) for i in range(first, order - 1))
        if best is None or total < best[0]:
            best = total, (*sides, True)
    return best[1]


def _z_side(pool, prefix, x, s, i):
    """C_i(Z, X)*S_(i)^T from Z's side: the prefix P_i, in the layout with
    mode i first (see :func:`update_factors`), times X_j^T for each j > i,
    then against S. Step 0 takes its last axis each time and ends with
    mode 0 last; a later step takes middle axes, each with one
    :func:`lrsetd.tensor.mode_product`."""
    order, ranks, rank = len(x), s.shape, s.shape[i]
    if i == 0:
        for j in range(order - 1, 0, -1):
            shape = (ranks[j], *prefix.shape[:-1])
            prefix = _trail(prefix, x[j].T, pool.piece(shape))
        # modes 1, ..., N-1, then 0
        rows = prefix.reshape(-1, x[0].shape[0]).T
        return np.matmul(rows, s.reshape(rank, -1).T)
    for j in range(order - 1, i, -1):
        shape = list(prefix.shape)
        shape[j - i] = ranks[j]
        prefix = mode_product(prefix, x[j].T, j - i, pool.piece(shape))
    # S with modes i+1, ..., N-1, then 0, ..., i-1, then i
    before = math.prod(s.shape[:i])
    rotated = pool.piece((s.size // (before * rank), before, rank))
    np.copyto(rotated, s.reshape(before, rank, -1).transpose(2, 0, 1))
    rows = prefix.reshape(x[i].shape[0], -1)
    return np.matmul(rows, rotated.reshape(-1, rank))


def update_factors(state, cfg):
    """Gauss-Seidel update X_0 -> X_1 -> ... -> X_{N-1} (in place).

    Each X_i is the exact minimizer of its subproblem given the current
    remaining blocks:

        X_i = [lam*C_i(Z, X)*S_(i)^T + beta*Y_i - T_i]
              [beta*I + lam*C_i(S, G)*S_(i)^T]^{-1}

    with T_i = beta*t_i, the unscaled dual of the state's scaled t_i,
    C_i(T, M) = unfold(T x_j M_j^T for j != i, i) and G_j = X_j^T X_j
    taken from the factors as they stand at step i: the new ones for
    j < i, the old ones for j > i.

    Every contraction is a matmul of C-order reshapes, with no unfolding
    and no copy of Z. Each intermediate keeps its modes in cyclic order,
    mode k first, then k+1, ..., N-1, 0, ..., k-1: a product on the first
    axis that places its new axis last moves k on by one (the prefix
    P_i = Z x_j X_j^T over j < i, which starts as Z and is shared by the
    steps), and a product on the last axis that places it first moves k
    back by one (the suffix chains of S from K_{N-1} = S down, with the
    old factors or Grams of the modes j > i). So at step i the prefix has
    mode i first, the suffix has it last and the other modes in the same
    order between them, and C_i(Z, X)*S_(i)^T is one matmul of the two,
    as is C_i(S, G)*S_(i)^T of the Gram prefix and suffix of S. Which
    side forms the right side of each step, Z's or the core's, is the
    state's `plan`, which :func:`_factor_plan` picks from the shape. The
    sweep reads the full-size Z twice, once for step 0 and once for P_1,
    and forms each Gram once. Both prefix chains run through the last
    mode, so it returns what :func:`update_core` takes: Z x_j X_j^T and
    S x_j G_j over all modes, with the new factors and Grams, core-sized
    with the modes in order, and the Grams.

    The sweep's intermediates are written into the state's two full-size
    buffers as far as they fit, so the returned products live there until
    :func:`update_z` overwrites them.
    """
    x, s, plan, beta = state.x, state.s, state.plan, state.beta
    order, ranks = len(x), s.shape
    pool = _Pool(*_buffers(state))
    grams = [None] + [f.T @ f for f in x[1:]]  # step 0 does not read G_0
    # suffixes S x_j G_j and, from the first step on the core's side on,
    # K_i = S x_j X_j over j > i, each with mode i last
    gram_suffix, suffix = [s] * order, [s] * order
    for i in range(order - 2, -1, -1):
        out = pool.piece((ranks[i + 1], *gram_suffix[i + 1].shape[:-1]))
        gram_suffix[i] = _trail(gram_suffix[i + 1], grams[i + 1], out)
        if any(plan[: i + 1]):
            out = pool.piece((len(x[i + 1]), *suffix[i + 1].shape[:-1]))
            suffix[i] = _trail(suffix[i + 1], x[i + 1], out)
    # P_i and S x_j G_j over j < i, each with mode i first
    prefix, gram_prefix = state.z, s
    for i in range(order):
        if plan[i]:
            rows = prefix.reshape(x[i].shape[0], -1)
            rhs = np.matmul(rows, suffix[i].reshape(-1, ranks[i]))
        else:
            rhs = _z_side(pool, prefix, x, s, i)
        rhs *= cfg.lam
        rhs += beta * (state.y[i] - state.t[i])
        lhs = gram_prefix.reshape(ranks[i], -1) @ gram_suffix[i].reshape(
            -1, ranks[i]
        )
        lhs *= cfg.lam
        lhs += beta * np.eye(ranks[i])
        lhs = 0.5 * (lhs + lhs.T)
        _require_finite(state, f"X_{i} subproblem", lhs, rhs)
        # X @ lhs = rhs; lhs >= beta*I is SPD by construction, so no check
        x[i] = np.linalg.solve(lhs, rhs.T).T
        grams[i] = x[i].T @ x[i]
        out = pool.piece((*prefix.shape[1:], ranks[i]))
        prefix = _lead(prefix, x[i].T, out)
        out = pool.piece((*gram_prefix.shape[1:], ranks[i]))
        gram_prefix = _lead(gram_prefix, grams[i], out)
    return prefix, gram_prefix, grams


def update_y(state, cfg):
    """Nuclear-norm prox on each auxiliary factor (in place):
    Y_i = svd_shrink(X_i + t_i, alpha_i/beta), t_i = T_i/beta the scaled
    dual. Returns the rank of each new Y_i, the number of singular values
    above alpha_i/beta."""
    ranks = [0] * len(state.x)
    for i in range(len(state.x)):
        point = state.x[i] + state.t[i]
        _require_finite(state, f"Y_{i} prox input", point)
        state.y[i], ranks[i] = _svd_shrink(point, cfg.alpha[i] / state.beta)
    return tuple(ranks)


def update_core(state, cfg, zx, sg, grams):
    """One proximal-gradient step on the core tensor (in place).

    The smooth part is phi(S) = 0.5*||[[S; X]] - Z||_F^2 with
    gradient S x_j G_j - Z x_j X_j^T over all modes, G_j = X_j^T X_j, and
    Lipschitz constant zeta, the product of the Grams' spectral norms. A
    zero Lipschitz constant (all-zero factors) skips the step.

    `zx` = Z x_j X_j^T, `sg` = S x_j G_j and the Grams `grams` are what
    :func:`update_factors` returns, formed from the factors the core step
    reads, so a caller passes them straight on:
    ``update_core(state, cfg, *update_factors(state, cfg))``. The
    gradient sg - zx, the step S - grad/zeta and its soft threshold at
    sigma/(lam*zeta) share one new core-sized array, which becomes S.
    """
    # the spectral norm of a Gram is its largest eigenvalue
    zeta = math.prod(np.linalg.eigvalsh(g)[-1] for g in grams)
    if zeta == 0.0:
        return
    step = np.subtract(sg, zx)
    step /= zeta
    np.subtract(state.s, step, out=step)
    state.s = _soft_shrink(step, cfg.sigma / (cfg.lam * zeta))


def update_z(state, cfg):
    """Closed-form Z update with the observation constraint.

    Off the observed set, with Zhat = [[S; X]] the current Tucker
    reconstruction, k = N - (number of smoothed modes) and u_i = U_i/beta
    the scaled duals,

        Z = ((lam/beta)*Zhat + sum_i (W_i - u_i) + k*Z_prev)
            * beta/(lam + N*beta),

    evaluated in that order as in-place passes over one buffer, each W_i
    added and its u_i subtracted in turn and the k copies of Z_prev added
    one at a time, all slab by slab along axis 0 (:func:`_slabs`); on it,
    Z = M exactly, from the observed values and their index that
    :func:`init_state` kept. The sums run over the smoothed modes: an
    unsmoothed mode enters with W_i = Z_prev (the Z before this update)
    and u_i = 0, the values its W and dual steps would have left.

    The new Z is written into the state's spare buffer, which then takes
    Z_prev in exchange; the reconstruction goes into its scratch.
    """
    spare, scratch = _buffers(state)
    order, beta = len(state.x), state.beta
    smoothed = cfg.smoothed_modes()
    # from the last mode to the first, each product on the last axis
    # placing its new one first, so the full-size product, the mode-0
    # one into the scratch, leaves the modes in order; the smaller ones
    # go where Z will
    pool = _Pool(spare)
    recon = state.s
    for f in reversed(state.x[1:]):
        recon = _trail(recon, f, pool.piece((len(f), *recon.shape[:-1])))
    recon = _trail(recon, state.x[0], out=scratch)
    scale = beta / (cfg.lam + order * beta)
    for sl in _slabs(spare.shape):
        acc = np.multiply(recon[sl], cfg.lam / beta, out=spare[sl])
        for i in smoothed:
            acc += state.w[i][sl]
            acc -= state.u[i][sl]
        for _ in range(order - len(smoothed)):
            acc += state.z[sl]
        acc *= scale
    # a view: the spare is C-contiguous
    spare.reshape(-1)[state.index] = state.observed
    # Z_prev becomes the spare; a Z in another layout, which a caller put
    # in the state, is copied, so the spare stays C-contiguous
    state.spare, state.z = np.ascontiguousarray(state.z), spare


def update_w(state, cfg):
    """Smoothness-regularized W update (in place) on each smoothed mode:
    W_(i) = [I + (2*omega_i/beta)*A_i^T A_i]^{-1} [Z_(i) + u_(i)], with
    u_i = U_i/beta the scaled dual, solved along axis i by
    :func:`lrsetd.kernels.tridiag_solve`. The right side Z + u_i goes into
    W_i when the solve sweeps a copy of the axis in the scratch, and into
    the scratch otherwise, whence the matrix product by T_i^{-1} of any
    axis of at most 32, batched on a middle one, or the first scaling pass
    of axis 0 writes W_i. On an axis past the first that takes the
    product, each line lies within an axis-0 slab (:func:`_slabs`), so
    the add and the product run slab by slab, the add's slab still in
    cache when the product reads it. On a middle axis that is the same
    matmuls, one per block; on the last axis it is one matmul per slab's
    rows, which OpenBLAS rounds as one over all rows at the traffic shape
    and the tested ones, though no BLAS promises it for every row count."""
    scratch = _buffers(state)[1]
    for i in cfg.smoothed_modes():
        ldl, w = state.w_ldl[i], state.w[i]
        route = _route(ldl, w.shape, i)
        if i and route == "inverse":
            for sl in _slabs(w.shape):
                rhs = np.add(state.z[sl], state.u[i][sl], out=scratch[sl])
                tridiag_solve(ldl, rhs, i, out=w[sl])
            continue
        swapped = route == "swap"
        rhs = np.add(state.z, state.u[i], out=w if swapped else scratch)
        tridiag_solve(ldl, rhs, i, scratch if swapped else None, out=w)


def _penalty(dual, gap, beta):
    """beta*(<dual, gap> + ||gap||^2/2), one constraint's augmented term
    with its scaled dual."""
    return beta * (inner(dual, gap) + 0.5 * inner(gap, gap))


def _gaps(z, w, scratch):
    """(slice, Z - W) for each axis-0 slab of :func:`_slabs`, the
    difference written into the scratch's first slab-sized piece, which
    each slab reuses."""
    for sl in _slabs(z.shape):
        z_slab = z[sl]
        yield sl, np.subtract(z_slab, w[sl], out=scratch[: len(z_slab)])


def _gap_norm(z, w, scratch):
    """||Z - W||_F as the hypot of the slabs' frobenius norms, each slab's
    gap formed anew by :func:`_gaps`: the dual step's fallback of
    :func:`_norm`, since the scratch holds the last slab's gap alone."""
    return math.hypot(*(frobenius(gap) for _, gap in _gaps(z, w, scratch)))


def update_duals(state, cfg):
    """Scaled dual ascent (in place): u_i += Z - W_i on the smoothed modes,
    t_i += X_i - Y_i on all, which is U_i += beta*(Z - W_i) and
    T_i += beta*(X_i - Y_i) on the unscaled duals. Returns the primal
    residuals ``(max_i ||Z - W_i||_F, max_i ||X_i - Y_i||_F)``, the first
    0.0 with no smoothed mode, or NaN for a NaN gap. The gap Z - W_i is
    formed slab by slab along axis 0 (:func:`_slabs`), each slab in the
    same slab-sized piece of the state's scratch buffer, which stays in
    cache, where its squared norm is summed and u_i ascended from it; a
    norm outside :func:`lrsetd.tensor.frobenius`'s safe range
    (2**-400, inf) is taken again as the ``math.hypot`` of the slabs'
    ``frobenius`` norms, each slab's gap formed anew. An overflow in the
    gap or the u_i ascent, or an inf - inf, raises NumericalError."""
    w_gaps, y_gaps = [0.0], [0.0]
    scratch = _buffers(state)[1]
    for i in cfg.smoothed_modes():
        w, u, squares = state.w[i], state.u[i], 0.0
        try:
            with np.errstate(over="raise", invalid="raise"):
                for sl, gap in _gaps(state.z, w, scratch):
                    squares += float(np.vdot(gap, gap))
                    u[sl] += gap
        except FloatingPointError:
            raise NumericalError(
                f"non-finite U_{i} at iteration {state.iteration + 1}"
            ) from None
        w_gaps.append(_norm(squares, lambda: _gap_norm(state.z, w, scratch)))
    for i in range(len(state.x)):
        gap = state.x[i] - state.y[i]
        state.t[i] = state.t[i] + gap
        y_gaps.append(frobenius(gap))
    # np.max, unlike max, keeps a NaN
    return float(np.max(w_gaps)), float(np.max(y_gaps))


def _smoothness(t, axis):
    """||A_i T_(i)||_F^2 for the difference matrix A_i along `axis` of `t`:
    the squared differences of neighbouring slices plus the squared last
    slice, summed over the slabs of :func:`_slabs`, so only one slab's
    differences are held at a time. Along axis 0 each slab takes the next
    one's first row with it, which its last difference reads."""
    # basic slicing is what np.diff does, without its per-call axis
    # handling; the slices are views
    head = (slice(None),) * axis
    total = 0.0
    for sl in _slabs(t.shape):
        slab = t[sl.start : sl.stop + (axis == 0)]
        if axis:
            last = slab[head + (slice(-1, None),)]
            total += inner(last, last)
        diff = slab[head + (slice(1, None),)] - slab[head + (slice(None, -1),)]
        total += inner(diff, diff)
        del diff  # before the next slab's is formed
    if not axis:
        total += inner(t[-1], t[-1])
    return total


def augmented_lagrangian(state, cfg):
    """Value of the augmented Lagrangian at the current state and its beta,
    computed from scratch, the penalty terms from the scaled duals as
    beta*(<u_i, Z - W_i> + ||Z - W_i||^2/2) and alike for t_i, the
    smoothness terms from differences along each axis, slab by slab.
    :func:`solve` reports it once, at the final iterate; a caller that
    wants it every iteration calls it after each :func:`step`."""
    smoothed, beta = cfg.smoothed_modes(), state.beta
    nuclear = sum(
        a * np.linalg.svd(y, compute_uv=False).sum()
        for a, y in zip(cfg.alpha, state.y)
    )
    penalties = sum(
        _penalty(state.u[i], state.z - state.w[i], beta) for i in smoothed
    ) + sum(
        _penalty(t, x - y, beta)
        for t, x, y in zip(state.t, state.x, state.y)
    )
    smoothness = sum(cfg.omega[i] * _smoothness(state.w[i], i) for i in smoothed)
    sparsity = cfg.sigma * np.abs(state.s).sum()
    # last, so that no other term's arrays are held beside it
    gap = multilinear(state.s, state.x)
    gap -= state.z
    fit = (cfg.lam / 2.0) * inner(gap, gap)
    return float(nuclear + penalties + fit + smoothness + sparsity)


def objective_value(state, cfg):
    """Value of the relaxed model objective at (X, S):
    Psi(X, S) + sum_i alpha_i*||X_i||_* + sigma*||S||_1.

    Each smoothness term ||S x_i (A_i X_i) x_{j!=i} X_j||_F^2 is evaluated
    at core size as <S, S x_j G_j> with G_j = X_j^T X_j and
    G_i = (A_i X_i)^T (A_i X_i). The nuclear norms come from an SVD of
    each X_j, as the Lagrangian's do of each Y_j. :func:`solve` reports it
    once, at the final iterate."""
    val = cfg.sigma * np.abs(state.s).sum()
    for a, x in zip(cfg.alpha, state.x):
        val += a * np.linalg.svd(x, compute_uv=False).sum()
    grams = [f.T @ f for f in state.x]
    for i in cfg.smoothed_modes():
        # (A_i X_i)^T (A_i X_i): the differences of neighbouring rows and
        # the last row
        x, g = state.x[i], list(grams)
        diff = x[1:] - x[:-1]
        g[i] = diff.T @ diff + x[-1:].T @ x[-1:]
        val += cfg.omega[i] * inner(state.s, multilinear(state.s, g))
    return float(val)


@dataclass(frozen=True)
class IterationRecord:
    """What one iteration, one :func:`step`, formed: the penalty beta it
    ran with, the relative change of Z, the primal residuals
    max_i ||Z - W_i||_F over the smoothed modes (0.0 when none is) and
    max_i ||X_i - Y_i||_F, the dual residual beta*||Z_k - Z_{k-1}||_F at
    that beta, the rank of each Y_i, the share of nonzero core entries and
    the iteration's wall time."""

    iteration: int
    beta: float
    rel_change: float
    w_residual: float
    y_residual: float
    dual_residual: float
    y_ranks: tuple
    core_density: float
    seconds: float


@dataclass
class CompletionReport:
    """Result of one :func:`solve` run; `lagrangian` and `objective` are
    :func:`augmented_lagrangian` and :func:`objective_value` at the final
    iterate."""

    recovered: np.ndarray
    trace: list
    iterations: int
    termination: str  # "tol", "max_iter" or "collapsed"
    lagrangian: float
    objective: float
    total_seconds: float


def step(state, cfg):
    """Run one ADMM iteration on `state`, in place, and return its
    :class:`IterationRecord`: the six blocks once each, at
    ``state.beta``, in the order X -> S -> Y -> Z -> W -> duals, the core
    step taking the factor sweep's products straight from it, so that no
    other block runs while they live. The relative change of iteration k,
    counted in ``state.iteration``, is
    ||Z_k - Z_{k-1}||_F / max(||Z_k||_F, 1), Z_0 the zero-filled data; the
    difference and both norms are formed slab by slab along axis 0
    (:func:`_slabs`). Raises NumericalError naming iteration
    ``state.iteration + 1`` when the iteration produces NaN or inf."""
    start = time.perf_counter()
    update_core(state, cfg, *update_factors(state, cfg))
    y_ranks = update_y(state, cfg)
    update_z(state, cfg)
    update_w(state, cfg)
    w_residual, y_residual = update_duals(state, cfg)
    _require_finite(state, "core or dual T", state.s, *state.t)
    state.iteration += 1

    # update_z left Z_{k-1} in the spare buffer, which takes the change
    z, spare = state.z, state.spare
    change_squares = z_squares = 0.0
    for sl in _slabs(z.shape):
        diff = np.subtract(z[sl], spare[sl], out=spare[sl])
        change_squares += float(np.vdot(diff, diff))
        z_squares += float(np.vdot(z[sl], z[sl]))
    # the spare holds every slab's difference
    change = _norm(change_squares, lambda: frobenius(spare))
    rel_change = change / max(_norm(z_squares, lambda: frobenius(z)), 1.0)
    # every other state array reaches Z or a primal residual, so NaN
    # or inf anywhere in the state shows here
    if not all(map(math.isfinite, (rel_change, w_residual, y_residual))):
        raise NumericalError(
            f"non-finite values in solver state at iteration {state.iteration}"
        )
    return IterationRecord(
        iteration=state.iteration,
        beta=state.beta,
        rel_change=rel_change,
        w_residual=w_residual,
        y_residual=y_residual,
        dual_residual=state.beta * change,
        y_ranks=y_ranks,
        core_density=np.count_nonzero(state.s) / state.s.size,
        seconds=time.perf_counter() - start,
    )


# residual balancing runs after each of a solve's first _BALANCE_ITERS
# iterations: 10 or 20 stop it too early on the benchmark's image and
# traffic recipes, and 50, 100 or no limit gave identical runs
_BALANCE_ITERS = 50


def _balanced(beta, record):
    """The penalty after one step of residual balancing (Boyd et al.
    2011, section 3.4.1) on an iteration's `record`: twice `beta` when
    ``w_residual`` exceeds 10 times ``dual_residual``, half of it in the
    converse case, else `beta`."""
    if record.w_residual > 10.0 * record.dual_residual:
        return 2.0 * beta
    if record.dual_residual > 10.0 * record.w_residual:
        return 0.5 * beta
    return beta


def solve(m, mask, cfg, callback=None):
    """Run the full ADMM: :func:`init_state`, then :func:`step` until
    iteration k has a relative change of at most ``cfg.tol`` or k is
    ``cfg.max_iter``. The termination is ``"tol"`` or ``"max_iter"``
    accordingly, or ``"collapsed"`` when the final core is all zero: the
    sparsity threshold sigma/(lam*zeta) of the core step then exceeded
    every core entry, and the tensor off the mask is the smoothing of the
    zero fill, not a Tucker fit.

    The run starts at ``cfg.beta``. When some mode is smoothed, each
    iteration k <= 50 (:data:`_BALANCE_ITERS`) that does not end the run
    is followed by one step of residual balancing on its record, put in
    force by :func:`set_beta`: beta doubles when ``w_residual`` exceeds 10
    times ``dual_residual`` and halves in the converse case; ``y_residual``
    is left out on purpose, since the imbalance measured on the smoothed
    recipes is the Z = W_i one. With no smoothed mode beta stays fixed.
    The final Lagrangian is evaluated at the beta of the last iteration.

    Parameters
    ----------
    m : ndarray
        Observed tensor; only its entries on the mask are read, once.
    mask : ObservationMask
    cfg : SolverConfig
    callback : callable, optional
        Called as ``callback(state)`` after each :func:`step`, for
        diagnostics; it copies the full-size arrays it keeps, which later
        steps overwrite. ``state.beta`` is the beta the step ran with, at
        which ``augmented_lagrangian(state, cfg)`` evaluates.

    Returns
    -------
    CompletionReport

    Raises
    ------
    NumericalError
        When an iteration produces NaN or inf (see :func:`step`), or when
        the final Lagrangian or objective is not finite.
    """
    start = time.perf_counter()
    state = init_state(m, mask, cfg)
    # with no smoothed mode w_residual is 0, and the rule would only halve
    balance = _BALANCE_ITERS if cfg.smoothed_modes() else 0
    trace = []
    for k in range(1, cfg.max_iter + 1):
        trace.append(step(state, cfg))
        if callback is not None:
            callback(state)
        if trace[-1].rel_change <= cfg.tol:
            break
        if k <= balance and k < cfg.max_iter:
            set_beta(state, cfg, _balanced(state.beta, trace[-1]))
    termination = "tol" if trace[-1].rel_change <= cfg.tol else "max_iter"
    if not state.s.any():
        termination = "collapsed"
    # the buffers are dead after the last iteration: released, their memory
    # serves the from-scratch evaluation
    state.spare = state.scratch = None
    lagrangian = augmented_lagrangian(state, cfg)
    objective = objective_value(state, cfg)
    if not (math.isfinite(lagrangian) and math.isfinite(objective)):
        raise NumericalError(
            f"non-finite Lagrangian or objective at iteration {state.iteration}"
        )

    return CompletionReport(
        recovered=state.z,
        trace=trace,
        iterations=len(trace),
        termination=termination,
        lagrangian=lagrangian,
        objective=objective,
        total_seconds=time.perf_counter() - start,
    )
