import copy
import itertools
import math
import tracemalloc
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from lrsetd.kernels import tridiag_ldl, tridiag_solve
from lrsetd.solver import (
    PRESETS,
    _BALANCE_ITERS,
    _balanced,
    _factor_plan,
    IterationRecord,
    NumericalError,
    SolverConfig,
    augmented_lagrangian,
    default_ranks,
    init_state,
    objective_value,
    preset_config,
    set_beta,
    solve,
    step,
    update_core,
    update_duals,
    update_factors,
    update_w,
    update_y,
    update_z,
)
from lrsetd.tensor import (
    ObservationMask,
    frobenius,
    multilinear,
    unfold,
)

from conftest import (
    kron_others,
    reference_admm,
    relayout,
    smoothing_matrix,
    synthetic_tucker,
    tridiag_solve_reference,
    unfold_by_index_formula,
)


def small_problem(seed=0, dims=(4, 3, 2), ranks=(2, 2, 2), obs=0.7):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(dims)
    mask = ObservationMask(rng.random(dims) < obs)
    cfg = SolverConfig(ranks=ranks, beta=0.5, omega=(0.0, 1.0, 0.2))
    return m, mask, cfg


def randomized_state(seed, dims, ranks, cfg, m, mask, beta=None):
    """A generic point in the iteration space, not a solver-produced one, so
    block oracles are exercised away from any fixed point. Its penalty in
    force is `beta` (``cfg.beta`` when None), put in force by set_beta as
    :func:`solve` does when it balances beta; its scaled duals u_i and t_i
    are drawn after that, so the unscaled ones are beta times them."""
    rng = np.random.default_rng(seed)
    state = init_state(m, mask, cfg)
    set_beta(state, cfg, cfg.beta if beta is None else beta)
    state.x = [rng.standard_normal(f.shape) for f in state.x]
    state.y = [rng.standard_normal(f.shape) for f in state.y]
    state.t = [rng.standard_normal(f.shape) for f in state.t]
    state.s = rng.standard_normal(ranks)
    state.z = rng.standard_normal(dims)
    for i in cfg.smoothed_modes():
        state.w[i] = rng.standard_normal(dims)
        state.u[i] = rng.standard_normal(dims)
    return state


def betas_in_force(cfg):
    """Penalties for a state to run its blocks at: cfg.beta, the start, and
    4x and 1/4x of it, as balancing moves it, which a block must read from
    the state and not from the config."""
    return [scale * cfg.beta for scale in (1.0, 4.0, 0.25)]


def unsmoothed_modes(cfg):
    return [i for i in range(len(cfg.omega)) if i not in cfg.smoothed_modes()]


def check_factor_update(state, cfg):
    """Run update_factors; each X_i must solve

        X [beta*I + lam*S_(i)B_i^T B_i S_(i)^T]
            = lam*Z_(i)B_i S_(i)^T + beta*Y_i - T_i

    with B_i materialized explicitly from the other (updated) factors and
    T_i = beta*t_i. Returns the sweep's products, for update_core."""
    ranks, modes = state.ranks, range(len(state.x))
    x_old = [f.copy() for f in state.x]
    chains = update_factors(state, cfg)
    for i in modes:
        # Gauss-Seidel: mode i saw the updated factors below it and the
        # pre-sweep factors above it
        mix = [state.x[j] if j < i else x_old[j] for j in modes]
        mix[i] = state.x[i]
        b = kron_others(mix, i)
        s_i = unfold(state.s, i)
        lhs = state.beta * np.eye(ranks[i]) + cfg.lam * s_i @ b.T @ b @ s_i.T
        rhs = (
            cfg.lam * unfold(state.z, i) @ b @ s_i.T
            + state.beta * state.y[i]
            - state.beta * state.t[i]
        )
        res = np.linalg.norm(state.x[i] @ lhs - rhs)
        assert res <= 1e-10 * max(1.0, np.linalg.norm(rhs))
    return chains


def check_core_update(state, cfg, chains):
    """Run update_core on `chains`, the products of the update_factors
    call just before; S must be the soft-thresholded gradient step of the
    explicit-Kronecker mode-0 unfolding at the factors that sweep left."""
    x0 = state.x[0]
    b = kron_others(state.x, 0)
    s_mat = unfold(state.s, 0)
    grad = x0.T @ (x0 @ s_mat @ b.T - unfold(state.z, 0)) @ b
    zeta = 1.0
    for f in state.x:
        zeta *= np.linalg.svd(f.T @ f, compute_uv=False)[0]
    step = s_mat - grad / zeta
    tau = cfg.sigma / (cfg.lam * zeta)
    expected = np.sign(step) * np.maximum(np.abs(step) - tau, 0.0)
    update_core(state, cfg, *chains)
    np.testing.assert_allclose(unfold(state.s, 0), expected, atol=1e-10)


def check_w_update(state, cfg):
    """Run update_w; each smoothed W_i must be C-contiguous and solve
    [beta*I + 2*omega_i*A_i^T A_i] W_(i) = beta*Z_(i) + U_(i) with the dense
    A_i and U_i = beta*u_i; unsmoothed modes keep no W_i."""
    dims = state.dims
    update_w(state, cfg)
    for i in unsmoothed_modes(cfg):
        assert state.w[i] is None
    for i in cfg.smoothed_modes():
        assert state.w[i].flags.c_contiguous
        a = smoothing_matrix(cfg, dims, i)
        lhs = state.beta * np.eye(dims[i]) + 2.0 * cfg.omega[i] * a.T @ a
        rhs = state.beta * unfold(state.z, i) + unfold(state.beta * state.u[i], i)
        res = np.linalg.norm(lhs @ unfold(state.w[i], i) - rhs)
        assert res <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def assert_w_close(got, expected):
    """W_i from the solver's routes, the matrix product by T_i^{-1} or the
    scaled sweep, within 1e-12 relative of the reference sweep."""
    err = np.linalg.norm(got - expected)
    assert err <= 1e-12 * np.linalg.norm(expected)


def dense_w_solve(state, cfg, i):
    """W_i from np.linalg.solve with the dense [beta*I + 2*omega_i*A_i^T A_i]
    on the unfolding of beta*Z + U_i along axis i, U_i = beta*u_i."""
    n = state.dims[i]
    a = smoothing_matrix(cfg, state.dims, i)
    lhs = state.beta * np.eye(n) + 2.0 * cfg.omega[i] * a.T @ a
    lines = np.moveaxis(state.beta * state.z + state.beta * state.u[i], i, 0)
    solved = np.linalg.solve(lhs, lines.reshape(n, -1)).reshape(lines.shape)
    return np.moveaxis(solved, 0, i)


def ldl_matrix(ldl):
    """Dense L D L^T from the coefficients kept in SolverState.w_ldl."""
    lower, inv_d = ldl.lower, ldl.inv_d
    unit = np.eye(inv_d.size) + np.diag(lower, -1)
    return unit @ np.diag(1.0 / inv_d) @ unit.T


def z_step_oracle(state, cfg, m, mask):
    """The Z step from fresh arrays, in the documented evaluation order
    ((lam/beta)*Zhat + sum_i (W_i - u_i) + k*Z) * beta/(lam + N*beta) off
    the mask and M on it. It reads the scaled u_i as they are: an oracle of
    the evaluation order, which the in-place tests compare bitwise, while
    the stationarity tests check the same step against beta*u_i."""
    zhat = multilinear(state.s, state.x)
    acc = (cfg.lam / state.beta) * zhat
    for i in cfg.smoothed_modes():
        acc += state.w[i]
        acc -= state.u[i]
    for _ in unsmoothed_modes(cfg):
        acc += state.z
    z = acc * (state.beta / (cfg.lam + len(state.x) * state.beta))
    sel = mask.boolean()
    z[sel] = np.asarray(m)[sel]
    return z


def unscaled_ldl(state, cfg, i):
    """The LDL^T factor of [beta*I + 2*omega_i*A_i^T A_i] at the state's
    beta, from the dense A_i."""
    a = smoothing_matrix(cfg, state.dims, i)
    t = state.beta * np.eye(state.dims[i]) + 2.0 * cfg.omega[i] * a.T @ a
    return tridiag_ldl(np.diag(t), np.diag(t, -1))


def w_step_oracle(state, cfg):
    """Each smoothed W_i from fresh arrays: the reference sweep of
    beta*Z + U_i, U_i = beta*u_i, along axis i with the factor of the
    unscaled [beta*I + 2*omega_i*A_i^T A_i]."""
    return {
        i: tridiag_solve_reference(
            unscaled_ldl(state, cfg, i),
            state.beta * state.z + state.beta * state.u[i],
            i,
        )
        for i in cfg.smoothed_modes()
    }


def dual_step_oracle(state, cfg):
    """The new scaled duals u_i and t_i from fresh arrays, and the primal
    residuals max_i ||Z - W_i||_F (0.0 with no smoothed mode) and
    max_i ||X_i - Y_i||_F of the gaps they add. Like :func:`z_step_oracle`
    it follows the scaled ascent u_i + (Z - W_i), which the in-place tests
    compare bitwise; TestUpdateDuals checks beta*u_i against U_i's ascent."""
    u, t, w_res, y_res = {}, [], 0.0, 0.0
    for i in cfg.smoothed_modes():
        gap = state.z - state.w[i]
        u[i] = state.u[i] + gap
        w_res = max(w_res, np.linalg.norm(gap))
    for t_i, x, y in zip(state.t, state.x, state.y):
        gap = x - y
        t.append(t_i + gap)
        y_res = max(y_res, np.linalg.norm(gap))
    return u, t, (w_res, y_res)


def lagrangian_oracle(state, cfg):
    """The augmented Lagrangian from fresh arrays at the state's beta, the
    smoothness terms with the dense A_i and the unscaled duals beta*t_i and
    beta*u_i."""
    beta = state.beta
    val = cfg.sigma * np.abs(state.s).sum()
    fit = multilinear(state.s, state.x) - state.z
    val += cfg.lam / 2.0 * np.linalg.norm(fit) ** 2
    for a, x, y, t in zip(cfg.alpha, state.x, state.y, state.t):
        val += a * np.linalg.svd(y, compute_uv=False).sum()
        val += np.sum(beta * t * (x - y)) + beta / 2.0 * np.linalg.norm(x - y) ** 2
    for i in cfg.smoothed_modes():
        a = smoothing_matrix(cfg, state.dims, i)
        gap = state.z - state.w[i]
        val += cfg.omega[i] * np.sum((a @ unfold(state.w[i], i)) ** 2)
        val += np.sum(beta * state.u[i] * gap) + beta / 2.0 * np.linalg.norm(gap) ** 2
    return val


LAYOUTS = pytest.mark.parametrize("layout", ["C", "F", "strided"])
# a block that runs first on its state and allocates the spare and scratch
# buffers ("alone"), or one that finds them already there, holding NaN
# where an earlier block left values it must not read ("workspace")
BUFFERS_HELD = pytest.mark.parametrize(
    "held", [False, True], ids=["alone", "workspace"]
)


# (dims, ranks) for the explicit-Kronecker block oracles: equal ranks,
# unequal ranks, a dimension of 1, and rank equal to dimension on every mode
ORACLE_SHAPES = pytest.mark.parametrize(
    "dims, ranks",
    [
        ((4, 3, 2), (2, 2, 2)),
        ((5, 4, 3), (3, 1, 2)),
        ((4, 1, 3), (2, 1, 3)),
        ((3, 2, 4), (3, 2, 4)),
    ],
    ids=["4x3x2-r222", "5x4x3-r312", "4x1x3-r213", "3x2x4-r324"],
)


# the three-way W_i/U_i layouts: two smoothed modes in two positions, and
# none; and a four-way one that smooths two modes with unequal weights
SOLVE_CONFIGS = pytest.mark.parametrize(
    "cfg",
    [
        preset_config("image", ranks=(3, 3, 2), max_iter=30, tol=1e-300),
        preset_config(
            "traffic-wholeday", ranks=(3, 3, 2), max_iter=30, tol=1e-300
        ),
        SolverConfig(ranks=(3, 3, 2), max_iter=30, tol=1e-300),
        SolverConfig(
            ranks=(3, 3, 2, 2),
            alpha=(0.25,) * 4,
            omega=(1.0, 0.0, 0.5, 0.0),
            max_iter=30,
            tol=1e-300,
        ),
    ],
    ids=["image", "traffic-wholeday", "omega-zero", "4-way"],
)


def reference_problem(order=3):
    """Zero-filled observations of a sparse-core Tucker tensor of the given
    order and their mask, for whole-solve comparisons."""
    truth, _, _ = synthetic_tucker(
        seed=6, dims=(6, 5, 4, 3)[:order], ranks=(2,) * order, density=0.5
    )
    mask = ObservationMask(
        np.random.default_rng(7).random(truth.shape) < 0.7
    )
    return np.where(mask.boolean(), truth, 0.0), mask


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=0.0),
            dict(beta=-1.0),
            dict(tol=0.0),
            dict(max_iter=0),
            dict(sigma=-0.5),
            dict(alpha=(0.5, -0.1, 0.5)),
            dict(omega=(-1.0, 0.0, 0.0)),
            dict(ranks=(2.0, 2, 2)),
            dict(omega=(1.0, 1.0)),
            dict(omega=1.0),
            dict(alpha=(0.5, 0.5, 0.5, 0.5)),
            dict(ranks=(2, 2)),
            dict(ranks=(2.7, 2, 2)),
            dict(max_iter=2.5),
            dict(max_iter=30.0),
            dict(max_iter=True),
            dict(ranks=(2, False, 2)),
            dict(ranks=(True, 2, 2)),
            dict(lam=float("inf")),
            dict(beta=float("nan")),
            dict(sigma=float("nan")),
            dict(tol=float("nan")),
            dict(omega=(0.0, float("inf"), 0.0)),
            dict(alpha=(), omega=()),
            dict(ranks=(2, 2, 2, 2)),
            dict(lam=True),
            dict(beta=True),
            dict(sigma=False),
            dict(tol=True),
            dict(alpha=(True, 0.5, 0.5)),
            dict(omega=(False, 1, 1)),
            dict(omega=((1, 2), 3, 4)),
            dict(alpha=((0.5, 0.5), 0.5, 0.5)),
            dict(ranks=((2, 2), 2, 2)),
            # JSON strings and null where a config file needs numbers
            dict(lam="0.1"),
            dict(omega=(0.0, "1", 0.0)),
            dict(max_iter="30"),
            dict(max_iter=None),
            dict(alpha=0.5),
            dict(tol=None),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_toeplitz_modes_is_not_a_field(self):
        # every smoothed mode uses the difference matrix; there is no switch
        with pytest.raises(TypeError, match="toeplitz_modes"):
            SolverConfig(omega=(0.0, 1.0, 1.0), toeplitz_modes=(1, 0, 1))
        with pytest.raises(TypeError, match="toeplitz_modes"):
            preset_config("traffic-wholeday", toeplitz_modes=None)
        assert "toeplitz_modes" not in SolverConfig.__dataclass_fields__

    def test_stop_denominator_is_not_a_field(self):
        # one stopping rule, normalized by max(||Z_k||_F, 1); no switch
        with pytest.raises(TypeError, match="stop_denominator"):
            SolverConfig(stop_denominator="blind")
        with pytest.raises(TypeError, match="stop_denominator"):
            preset_config("image", stop_denominator="oracle")
        assert "stop_denominator" not in SolverConfig.__dataclass_fields__

    @pytest.mark.parametrize(
        "name, value", [("init", "hosvd"), ("seed", 3), ("preset", "image")]
    )
    def test_init_seed_and_preset_are_not_fields(self, name, value):
        # every solve starts from one fixed draw, and a preset is applied by
        # preset_config, not carried as a label; no switch is left
        with pytest.raises(TypeError, match=name):
            SolverConfig(**{name: value})
        with pytest.raises(TypeError, match=name):
            preset_config("image", **{name: value})
        assert name not in SolverConfig.__dataclass_fields__

    def test_field_count(self):
        assert list(SolverConfig.__dataclass_fields__) == [
            "ranks", "alpha", "sigma", "lam", "beta", "omega", "tol",
            "max_iter",
        ]

    @pytest.mark.parametrize("name", ["alpha", "omega", "ranks"])
    def test_ragged_value_names_the_field(self, name):
        # numpy's own "inhomogeneous shape" error names no field
        with pytest.raises(ValueError, match=f"one value per mode.*got {name}="):
            SolverConfig(**{name: ((1, 2), 3, 4)})

    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.sigma == 1.0
        assert cfg.lam == pytest.approx(1e-2)
        assert cfg.alpha == (1 / 3, 1 / 3, 1 / 3)
        assert cfg.tol == pytest.approx(1e-5)
        assert cfg.max_iter == 250

    def test_order_follows_per_mode_fields(self):
        cfg = SolverConfig(alpha=(0.5,) * 4, omega=(0.0, 1.0, 0.0, 2.0))
        assert cfg.smoothed_modes() == (1, 3)
        cfg = SolverConfig(alpha=(0.5,), omega=(1.0,), ranks=(2,))
        assert cfg.smoothed_modes() == (0,)
        assert SolverConfig(omega=(0.0, 1.0, 2e-3)).smoothed_modes() == (1, 2)

    def test_smoothed_modes_built_once_per_config(self):
        # every block reads it each iteration; it is computed with the
        # config, is not a field, and follows a replaced omega
        cfg = SolverConfig(omega=(0.0, 1.0, 2e-3))
        assert cfg.smoothed_modes() is cfg.smoothed_modes()
        assert "_smoothed" not in asdict(cfg)
        assert cfg == SolverConfig(omega=(0.0, 1.0, 2e-3))
        assert replace(cfg, omega=(1.0, 0.0, 0.0)).smoothed_modes() == (0,)
        assert copy.deepcopy(cfg).smoothed_modes() == (1, 2)


class TestPresets:
    def test_known_names(self):
        assert set(PRESETS) == {"traffic-random", "traffic-wholeday", "image"}

    def test_omega_values(self):
        assert preset_config("traffic-random").omega == (0.0, 1.0, 2e-3)
        assert preset_config("traffic-wholeday").omega == (0.0, 1.0, 1.0)
        assert preset_config("image").omega == (1.0, 1.0, 0.0)

    def test_shared_scalars(self):
        for name in PRESETS:
            cfg = preset_config(name)
            assert cfg.sigma == 1.0
            assert cfg.lam == pytest.approx(1e-2)
            assert cfg.alpha == (1 / 3, 1 / 3, 1 / 3)

    def test_preset_applies_its_fields(self):
        for name, fields in PRESETS.items():
            assert preset_config(name) == SolverConfig(**fields)
        assert preset_config("image", omega=(0.0, 0.0, 1.0)) == SolverConfig(
            omega=(0.0, 0.0, 1.0)
        )

    def test_override(self):
        cfg = preset_config("image", beta=2.0, ranks=(3, 3, 3))
        assert cfg.beta == 2.0 and cfg.ranks == (3, 3, 3)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("video")
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config(["image"])


class TestDefaultRanks:
    def test_examples(self):
        assert default_ranks((20, 20, 20)) == (5, 5, 5)
        assert default_ranks((3, 9, 144)) == (1, 3, 36)
        assert default_ranks((1, 2, 5)) == (1, 1, 2)


class TestInitState:
    def test_shapes_and_zero_fill(self):
        m, mask, cfg = small_problem()
        state = init_state(m, mask, cfg)
        sel = mask.boolean()
        np.testing.assert_array_equal(state.z[sel], m[sel])
        assert not state.z[~sel].any()
        for i in range(3):
            assert state.x[i].shape == (m.shape[i], 2)
            np.testing.assert_allclose(
                state.x[i].T @ state.x[i], np.eye(2), atol=1e-10
            )
            np.testing.assert_array_equal(state.y[i], state.x[i])
            assert not state.t[i].any()
        for i in cfg.smoothed_modes():
            assert not state.u[i].any()
            np.testing.assert_array_equal(state.w[i], state.z)
        for i in unsmoothed_modes(cfg):
            assert state.w[i] is None and state.u[i] is None
        np.testing.assert_allclose(
            state.s, multilinear(state.z, [f.T for f in state.x]), atol=1e-12
        )

    def test_state_arrays_share_no_memory(self):
        # the blocks write Z, W_i and U_i in place, so no two state arrays,
        # and none of them and the data, may be views of one another
        m, mask, cfg = small_problem()
        state = init_state(m, mask, cfg)
        arrays = [m, state.s, state.z, state.observed]
        arrays += [*state.x, *state.y, *state.t]
        arrays += [a for a in state.w + state.u if a is not None]
        assert len(arrays) == 17
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    def test_random_init_is_seeded(self):
        # every start is the same written-out draw: one seed-0 QR per mode
        # in mode order, whatever the data
        m, mask, cfg = small_problem()
        a = init_state(m, mask, cfg)
        b = init_state(2.0 * m, mask, cfg)
        rng = np.random.default_rng(0)
        for i in range(3):
            q = np.linalg.qr(rng.standard_normal((m.shape[i], 2)))[0]
            np.testing.assert_array_equal(a.x[i], q)
            np.testing.assert_array_equal(b.x[i], q)

    def test_toeplitz_attachment(self):
        # the kept LDL^T coefficients rebuild the scaled W matrix
        # [I + (2*omega_i/beta)*A_i^T A_i] with A_i the difference matrix
        m, mask, _ = small_problem()
        cfg = SolverConfig(ranks=(2, 2, 2), omega=(0.0, 1.0, 0.2))
        state = init_state(m, mask, cfg)
        # omega = (0, 1, 0.2): mode 0 is unsmoothed and gets no W solve
        assert state.w_ldl[0] is None
        rng = np.random.default_rng(2)
        for i in cfg.smoothed_modes():
            n = m.shape[i]
            a = smoothing_matrix(cfg, m.shape, i)
            t = np.eye(n) + (2.0 * cfg.omega[i] / cfg.beta) * a.T @ a
            np.testing.assert_allclose(
                ldl_matrix(state.w_ldl[i]), t, rtol=1e-14, atol=1e-14
            )
            # the W solve with what the state keeps, against the reference
            # sweep and a dense solve
            state.u[i] = rng.standard_normal(m.shape)
            b = state.z + state.u[i]
            got = tridiag_solve(state.w_ldl[i], b.copy(), i)
            assert_w_close(got, tridiag_solve_reference(state.w_ldl[i], b, i))
            assert_w_close(got, dense_w_solve(state, cfg, i))

    def test_rejects_bad_order(self):
        # the order is the config's number of modes; the defaults are
        # three-way, so a 3-tuple preset on 4-way data is an error too
        with pytest.raises(ValueError, match="3 modes, tensor has order 2"):
            init_state(np.zeros((2, 2)), ObservationMask.full((2, 2)), SolverConfig())
        dims = (2, 2, 2, 2)
        with pytest.raises(ValueError, match="3 modes, tensor has order 4"):
            init_state(
                np.zeros(dims), ObservationMask.full(dims), preset_config("image")
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            init_state(
                np.zeros((2, 2, 2)), ObservationMask.full((2, 2, 3)), SolverConfig()
            )

    def test_rejects_bad_ranks(self):
        m, mask, _ = small_problem()
        with pytest.raises(ValueError, match="rank"):
            init_state(m, mask, SolverConfig(ranks=(5, 2, 2)))

    # "random" names the one start, the seeded draw every solve begins from
    @pytest.mark.parametrize("start", ["random"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_observation(self, bad, start):
        m, mask, cfg = small_problem()
        m.flat[mask.c_flat_index()[0]] = bad
        with pytest.raises(ValueError, match="must be finite"):
            init_state(m, mask, cfg)

    def test_rejects_overflowing_observation(self):
        m, mask, cfg = small_problem()
        with pytest.raises(ValueError, match="overflows"):
            init_state(m * 1e200, mask, cfg)

    def test_ignores_non_finite_off_mask(self):
        m, mask, cfg = small_problem()
        m[~mask.boolean()] = np.nan
        state = init_state(m, mask, cfg)
        assert np.all(np.isfinite(state.z)) and np.all(np.isfinite(state.s))


class TestUpdateFactors:
    @ORACLE_SHAPES
    def test_normal_equation_oracle(self, dims, ranks):
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        for beta in betas_in_force(cfg):
            state = randomized_state(3, dims, ranks, cfg, m, mask, beta)
            check_factor_update(state, cfg)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_sweep_reads_z_twice(self, order, monkeypatch):
        # the prefix Z x_j X_j^T over j < i is shared by the steps after
        # i, so only step 0, from either side, and the prefix's first
        # product take the full-size Z, at any order and with any plan;
        # ranks below every dimension keep all other operands smaller
        # than Z. Every read is a matmul: in a mode product, in a product
        # on Z's side, or the core's side's one matmul of Z
        dims, ranks = (5, 4, 3, 3, 2)[:order], (2, 2, 2, 2, 1)[:order]
        cfg = SolverConfig(
            ranks=ranks, alpha=(0.5,) * order, omega=(0.0,) * order
        )
        m = np.zeros(dims)
        reads = []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            reads.append(m.size in (np.size(a), np.size(b)))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        for plan in (None, *every_plan(order)):
            state = randomized_state(
                2, dims, ranks, cfg, m, ObservationMask.full(dims)
            )
            state.plan = plan or state.plan
            reads.clear()
            update_factors(state, cfg)
            assert sum(reads) == 2

    def test_tiny_lam_limit(self):
        # as lam -> 0 the update degenerates to X_i = Y_i - T_i/beta, which
        # is Y_i - t_i
        dims, ranks = (3, 3, 3), (2, 2, 2)
        m, mask, _ = small_problem(dims=dims, ranks=ranks)
        cfg = SolverConfig(ranks=ranks, lam=1e-30, beta=0.7)
        for beta in betas_in_force(cfg):
            state = randomized_state(5, dims, ranks, cfg, m, mask, beta)
            expected = [state.y[i] - state.t[i] for i in range(3)]
            update_factors(state, cfg)
            for i in range(3):
                np.testing.assert_allclose(
                    state.x[i], expected[i], atol=1e-10
                )


def every_plan(order):
    """Every side per step that :func:`lrsetd.solver._factor_plan` can
    pick: any choice for steps 0 to N-2, and the core's for the last."""
    return [
        (*sides, True)
        for sides in itertools.product((False, True), repeat=order - 1)
    ]


class TestFactorPlan:
    # orders 2 to 5, with r_i = I_i on the first, a middle or the last
    # mode, where a product on that mode keeps the size of its input
    SHAPES = pytest.mark.parametrize(
        "dims, ranks",
        [
            ((5, 4), (2, 3)),
            ((3, 6), (3, 2)),
            ((5, 4, 3), (2, 2, 3)),
            ((3, 5, 4), (3, 2, 2)),
            ((6, 3, 5), (2, 3, 2)),
            ((4, 3, 2, 5), (2, 3, 1, 2)),
            ((3, 4, 2, 3), (3, 2, 2, 1)),
            ((4, 3, 3, 2, 3), (2, 2, 3, 1, 2)),
        ],
        ids=lambda v: "x".join(map(str, v)),
    )

    @SHAPES
    def test_every_plan_matches_kronecker_oracle(
        self, dims, ranks, monkeypatch
    ):
        # each step's right side lam*Z_(i) B_i S_(i)^T + beta*Y_i - T_i and
        # left side beta*I + lam*S_(i) B_i^T B_i S_(i)^T, with B_i the
        # explicit Kronecker product of the factors as step i sees them,
        # and the returned Z x_j X_j^T and S x_j G_j over all modes, with
        # the new factors and Grams, by the index formula
        order = len(dims)
        cfg = SolverConfig(
            ranks=ranks, alpha=(0.5,) * order, omega=(0.0,) * order,
            lam=0.7, beta=0.3,
        )
        m = np.zeros(dims)
        mask = ObservationMask.full(dims)
        cases = itertools.product(betas_in_force(cfg), every_plan(order))
        for beta, plan in cases:
            state = randomized_state(7, dims, ranks, cfg, m, mask, beta)
            state.plan = plan
            x_old = [f.copy() for f in state.x]
            systems = []
            solve_system = np.linalg.solve

            def spy(lhs, rhs):
                systems.append((lhs.copy(), rhs.T.copy()))
                return solve_system(lhs, rhs)

            monkeypatch.setattr(np.linalg, "solve", spy)
            zx, sg, grams = update_factors(state, cfg)
            monkeypatch.undo()
            assert len(systems) == order
            for i, (lhs, rhs) in enumerate(systems):
                mix = [state.x[j] if j < i else x_old[j] for j in range(order)]
                b = kron_others(mix, i)
                s_i = unfold_by_index_formula(state.s, i)
                z_i = unfold_by_index_formula(state.z, i)
                want = (
                    cfg.lam * z_i @ b @ s_i.T
                    + beta * state.y[i]
                    - beta * state.t[i]
                )
                np.testing.assert_allclose(
                    rhs, want, rtol=0, atol=1e-12 * np.linalg.norm(want)
                )
                want = beta * np.eye(ranks[i])
                want += cfg.lam * s_i @ b.T @ b @ s_i.T
                np.testing.assert_allclose(
                    lhs, want, rtol=0, atol=1e-12 * np.linalg.norm(want)
                )
            for g, f in zip(grams, state.x):
                np.testing.assert_array_equal(g, f.T @ f)
            # both chains run through every mode and end core-sized, with
            # the modes in order
            want = (
                state.x[0].T
                @ unfold_by_index_formula(state.z, 0)
                @ kron_others(state.x, 0)
            )
            assert zx.shape == ranks
            np.testing.assert_allclose(
                unfold_by_index_formula(zx, 0),
                want,
                rtol=0,
                atol=1e-12 * np.linalg.norm(want),
            )
            want = (
                grams[0]
                @ unfold_by_index_formula(state.s, 0)
                @ kron_others(grams, 0).T
            )
            assert sg.shape == ranks
            np.testing.assert_allclose(
                unfold_by_index_formula(sg, 0),
                want,
                rtol=0,
                atol=1e-12 * np.linalg.norm(want),
            )

    @pytest.mark.parametrize(
        "dims, ranks, plan",
        [
            # image-256: step 0 from the core's side reads Z once, with no
            # full-size product; Z x_2 X_2^T would be full size (r_2 = I_2)
            ((256, 256, 3), (64, 64, 3), (True, True, True)),
            # traffic-wholeday: Z x_2 X_2^T shrinks Z 3.5-fold first
            ((121, 288, 7), (31, 72, 2), (False, False, True)),
            # synth-batch
            ((20, 20, 20), (2, 2, 2), (True, True, True)),
        ],
        ids=["image-256", "traffic-wholeday", "synth-batch"],
    )
    def test_plan_at_benchmark_shapes(self, dims, ranks, plan):
        assert _factor_plan(dims, ranks) == plan

    def test_state_holds_the_plan_of_its_shape(self):
        dims, ranks = (12, 12, 3), (4, 4, 3)
        m, mask, _ = small_problem(dims=dims, ranks=ranks)
        cfg = preset_config("image", ranks=ranks)
        assert init_state(m, mask, cfg).plan == _factor_plan(dims, ranks)
        assert _factor_plan((7,), (3,)) == (True,)


class TestBlockMemory:
    def test_factor_and_core_blocks_build_no_kronecker_gram(self):
        # at ranks (32, 32, 3) the Kronecker product of two 32x32 Grams is a
        # 1024x1024 float64 matrix (8 MiB); the mode-product form of both
        # blocks needs a small fraction of that
        dims, ranks = (64, 64, 3), (32, 32, 3)
        rng = np.random.default_rng(0)
        m = rng.standard_normal(dims)
        mask = ObservationMask(rng.random(dims) < 0.4)
        cfg = preset_config("image", ranks=ranks)
        state = init_state(m, mask, cfg)
        tracemalloc.start()
        try:
            update_core(state, cfg, *update_factors(state, cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_w_block_builds_no_dense_smoothing_matrix(self):
        # a dense A_i or [beta*I + 2*omega*A^T A] of a mode of length 2000
        # is a 32 MB float64 matrix; the full-size tensors here are 96 kB
        dims = (2000, 3, 2)
        rng = np.random.default_rng(0)
        m = rng.standard_normal(dims)
        mask = ObservationMask(rng.random(dims) < 0.5)
        cfg = SolverConfig(ranks=(2, 2, 2), omega=(1.0, 0.0, 0.0))
        tracemalloc.start()
        try:
            state = init_state(m, mask, cfg)
            update_w(state, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_start_is_linear_in_the_tensor(self):
        # a start that formed an I_n x I_n Gram, such as a truncated HOSVD,
        # would need 813 MB for mode 0 here; Z, W_0, U_0, the observed
        # values and their index, the draw and the core compression peak
        # at about 7x the tensor's 5.2 MB
        dims = (10_080, 16, 4)
        rng = np.random.default_rng(0)
        m = rng.standard_normal(dims)
        mask = ObservationMask(rng.random(dims) < 0.5)
        cfg = SolverConfig(ranks=(64, 4, 1), omega=(1.0, 0.0, 0.0))
        tracemalloc.start()
        try:
            init_state(m, mask, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * m.nbytes

    def test_solve_iteration_keeps_no_extra_full_size_tensor(self):
        # with the Lagrangian recomputed from scratch every iteration the
        # peak here was 1 132 284 bytes, set by that recomputation; less
        # than one more full-size tensor (98 304 bytes) is allowed. It is
        # now recomputed once, after the last iteration, in the memory of
        # the two buffers that the solve then releases, and the
        # iterations set the peak
        dims, ranks = (64, 64, 3), (32, 32, 3)
        rng = np.random.default_rng(0)
        m = 255.0 * rng.random(dims)
        mask = ObservationMask(rng.random(dims) < 0.4)
        cfg = preset_config("image", ranks=ranks, max_iter=2, tol=1e-300)
        tracemalloc.start()
        try:
            report = solve(m, mask, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations == 2
        assert peak < 1_132_284 + 98_304


def held(state):
    """The bytes of the arrays that `state` holds, each base counted once:
    what an iteration's tracemalloc peak rises above."""
    bases = {}
    for a in [
        state.s, state.z, *state.x, *state.y, *state.t, *state.w, *state.u,
        state.index, state.observed, state.spare, state.scratch,
    ]:
        if a is not None:
            while isinstance(a.base, np.ndarray):
                a = a.base
            bases[id(a)] = a.nbytes
    return sum(bases.values())


class TestIterationMemory:
    @pytest.mark.parametrize(
        "dims, ranks, omega, bound",
        [
            ((60, 50, 40), (6, 3, 4), (1.0, 0.0, 0.5), 0.25),
            ((40, 12, 10, 40), (4, 2, 2, 4), (0.0, 1.0, 0.0, 0.5), 0.25),
            # image-shaped, r_2 = I_2: the sweep's and the reconstruction's
            # products go into the buffers, with no moved copy; the core
            # is a quarter and each factor a sixth of the tensor here. The
            # peak reads 1.348-1.352 tensors, as other tests run before
            # this one or not, and the bound leaves under 5 % above it.
            # When update_y ran between the factor sweep and the core step,
            # with the sweep's chains alive, it read 1.606, and 1.780 when
            # solve also held them across the callback
            ((64, 64, 3), (32, 32, 3), (1.0, 1.0, 0.0), 1.41),
        ],
        ids=["order-3", "order-4", "image-r2-full"],
    )
    def test_iteration_allocates_no_full_size_tensor(
        self, dims, ranks, omega, bound
    ):
        # every full-size array of an iteration lives in the state, whose
        # two buffers the first block allocates, so an iteration's peak
        # adds only factor- and core-sized products to the bytes the state
        # holds; in the first two shapes each factor is under 5 % of the
        # tensor and the end modes shrink tenfold, so no mode product
        # reaches a quarter of it. Before those buffers an iteration
        # allocated about two full-size tensors.
        rng = np.random.default_rng(0)
        m = 100.0 * rng.random(dims)
        mask = ObservationMask(rng.random(dims) < 0.5)
        order = len(dims)
        cfg = SolverConfig(
            ranks=ranks,
            alpha=(0.3,) * order,
            omega=omega,
            sigma=0.1,
            lam=1.0,
            max_iter=6,
            tol=1e-300,
        )
        rises, seen = [], []

        def cb(state):
            # the peak since the last callback, above the state's arrays
            if seen:
                rises.append(tracemalloc.get_traced_memory()[1] - held(state))
            tracemalloc.reset_peak()
            seen.append(state.iteration)

        tracemalloc.start()
        try:
            report = solve(m, mask, cfg, callback=cb)
        finally:
            tracemalloc.stop()
        assert report.iterations == 6 and len(rises) == 5
        assert max(rises) < bound * m.nbytes

    def test_blocks_after_the_core_step_run_without_the_chains(
        self, monkeypatch
    ):
        # the core step consumes the factor sweep's chains (0.67 tensors
        # here) straight after the sweep, so the Y, Z, W and dual blocks
        # rise above the state's arrays by their own temporaries alone.
        # Over four iterations the peaks read 0.656-0.927, 0.154-0.163,
        # 0.908-0.918 and 0.661-0.669 tensors, as other tests run before
        # this one or not, and the bounds leave under 5 % above the
        # highest, and 7 % for update_z. With the chains alive through
        # update_y it read 1.331-1.602, and with them alive through every
        # block the last three read 0.84, 1.59 and 1.35
        import lrsetd.solver as solver_module

        dims, ranks = (64, 64, 3), (32, 32, 3)
        rng = np.random.default_rng(0)
        m = 100.0 * rng.random(dims)
        mask = ObservationMask(rng.random(dims) < 0.5)
        cfg = SolverConfig(
            ranks=ranks,
            alpha=(0.3,) * 3,
            omega=(1.0, 1.0, 0.0),
            sigma=0.1,
            lam=1.0,
        )
        bounds = {
            "update_y": 0.97,
            "update_z": 0.175,
            "update_w": 0.96,
            "update_duals": 0.70,
        }
        rises = {name: [] for name in bounds}

        def measured(name, block):
            def run(state, cfg):
                tracemalloc.reset_peak()
                out = block(state, cfg)
                peak = tracemalloc.get_traced_memory()[1]
                rises[name].append(peak - held(state))
                return out

            return run

        # an untraced iteration first, on a mask of its own, so that what
        # numpy caches on first use is not counted in the rises, while the
        # traced state's index is
        step(init_state(m, ObservationMask(mask.boolean()), cfg), cfg)
        tracemalloc.start()
        try:
            state = init_state(m, mask, cfg)
            step(state, cfg)  # allocates the buffers
            for name in bounds:
                block = getattr(solver_module, name)
                monkeypatch.setattr(solver_module, name, measured(name, block))
            for _ in range(4):
                step(state, cfg)
        finally:
            tracemalloc.stop()
        for name, bound in bounds.items():
            assert len(rises[name]) == 4
            assert max(rises[name]) < bound * m.nbytes, name

    @pytest.mark.parametrize(
        "block",
        [
            update_factors,
            update_y,
            update_core,
            update_z,
            update_w,
            update_duals,
        ],
        ids=lambda block: block.__name__,
    )
    def test_block_called_again_allocates_no_full_size_tensor(self, block):
        # outside solve too, the buffers that a block allocates stay with
        # the state, so its second call allocates no full-size array; the
        # products here are at most a tenth of the tensor. update_core
        # takes the products of a sweep run just before it, untraced
        dims = (60, 50, 40)
        rng = np.random.default_rng(0)
        m = 100.0 * rng.random(dims)
        mask = ObservationMask(rng.random(dims) < 0.5)
        cfg = SolverConfig(
            ranks=(6, 3, 4), omega=(1.0, 0.0, 0.5), sigma=0.1, lam=1.0
        )
        state = init_state(m, mask, cfg)
        sweep = update_factors if block is update_core else lambda *_: ()
        block(state, cfg, *sweep(state, cfg))
        args = sweep(state, cfg)
        tracemalloc.start()
        try:
            block(state, cfg, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.nbytes / 4


class TestRandomShapeSweep:
    @pytest.mark.parametrize("seed", range(16))
    def test_block_oracles(self, seed):
        # seeded random order (1..5), dims (1..6), ranks, scalars and
        # smoothed modes through the explicit-Kronecker and dense-A_i
        # oracles
        rng = np.random.default_rng(1000 + seed)
        order = int(rng.integers(1, 6))
        dims = tuple(int(d) for d in rng.integers(1, 7, size=order))
        ranks = tuple(int(rng.integers(1, d + 1)) for d in dims)
        cfg = SolverConfig(
            ranks=ranks,
            alpha=(1 / 3,) * order,
            beta=float(rng.uniform(0.1, 2.0)),
            lam=float(rng.uniform(0.01, 1.0)),
            sigma=float(rng.uniform(0.0, 1.0)),
            omega=tuple(
                float(w) * (rng.random() < 0.7)
                for w in rng.uniform(0, 2, order)
            ),
        )
        m = rng.standard_normal(dims)
        mask = ObservationMask(rng.random(dims) < 0.7)
        for beta in betas_in_force(cfg):
            state = randomized_state(seed, dims, ranks, cfg, m, mask, beta)
            chains = check_factor_update(state, cfg)
            check_core_update(state, cfg, chains)
            check_w_update(state, cfg)


class TestUpdateY:
    def test_prox_input_and_threshold(self):
        dims, ranks = (4, 3, 2), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        rng = np.random.default_rng(42)
        for beta in betas_in_force(cfg):
            state = randomized_state(7, dims, ranks, cfg, m, mask, beta)
            # X_i + T_i/beta, with T_i = beta*t_i
            inputs = [state.x[i] + state.t[i] for i in range(3)]
            update_y(state, cfg)
            for i in range(3):
                tau = cfg.alpha[i] / beta
                g = inputs[i]

                def obj(c):
                    return tau * np.linalg.svd(c, compute_uv=False).sum() + (
                        0.5 * np.linalg.norm(c - g) ** 2
                    )

                best = obj(state.y[i])
                for _ in range(100):
                    d = rng.standard_normal(g.shape)
                    d *= 1e-3 / np.linalg.norm(d)
                    assert obj(state.y[i] + d) >= best - 1e-12


class TestUpdateCore:
    def test_majorization_decrease(self):
        # the prox-gradient step must not increase the majorized surrogate,
        # hence not the true subproblem objective either
        dims, ranks = (5, 4, 3), (2, 2, 2)
        m, mask, cfg = small_problem(seed=2, dims=dims, ranks=ranks)
        state = randomized_state(11, dims, ranks, cfg, m, mask)
        chains = update_factors(state, cfg)

        def sub_obj(s):
            fit = multilinear(s, state.x) - state.z
            return cfg.sigma * np.abs(s).sum() + (cfg.lam / 2.0) * (
                frobenius(fit) ** 2
            )

        before = sub_obj(state.s)
        update_core(state, cfg, *chains)
        assert sub_obj(state.s) <= before + 1e-10

    @ORACLE_SHAPES
    def test_sigma_zero_is_plain_gradient_step(self, dims, ranks):
        m, mask, _ = small_problem(dims=dims, ranks=ranks)
        cfg = SolverConfig(ranks=ranks, sigma=0.0)
        state = randomized_state(13, dims, ranks, cfg, m, mask)
        check_core_update(state, cfg, update_factors(state, cfg))

    def test_zero_factors_skip(self):
        # all-zero factors: zero Grams and products, so zeta = 0
        dims, ranks = (3, 3, 3), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        state = randomized_state(17, dims, ranks, cfg, m, mask)
        state.x = [np.zeros_like(f) for f in state.x]
        grams = [f.T @ f for f in state.x]
        zx = multilinear(state.z, [f.T for f in state.x])
        sg = multilinear(state.s, grams)
        s_before = state.s.copy()
        update_core(state, cfg, zx, sg, grams)
        np.testing.assert_array_equal(state.s, s_before)


class TestUpdateZ:
    def test_observed_entries_pinned(self):
        dims, ranks = (4, 3, 2), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        state = randomized_state(19, dims, ranks, cfg, m, mask)
        update_z(state, cfg)
        sel = mask.boolean()
        assert np.abs(state.z[sel] - m[sel]).max() == 0.0

    def test_off_mask_stationarity(self):
        # off the mask, Z must zero the gradient of
        # lam/2*||Zhat - Z||^2 + sum_i (<U_i, Z - W_i> + beta/2*||Z - W_i||^2)
        # where U_i = beta*u_i and an unsmoothed mode has W_i = Z_prev and
        # U_i = 0
        dims, ranks = (4, 3, 2), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        off = ~mask.boolean()
        for beta in betas_in_force(cfg):
            state = randomized_state(23, dims, ranks, cfg, m, mask, beta)
            z_prev = state.z
            update_z(state, cfg)
            zhat = multilinear(state.s, state.x)
            grad = cfg.lam * (state.z - zhat)
            for i in cfg.smoothed_modes():
                grad += beta * state.u[i] + beta * (state.z - state.w[i])
            for i in unsmoothed_modes(cfg):
                grad += beta * (state.z - z_prev)
            assert np.abs(grad[off]).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["fortran-boolean", "empty", "full"])
    def test_observed_write_and_closed_form(self, kind):
        # observed entries are an exact copy of m whatever the memory layout
        # of the mask and of m; off the mask Z is the closed form term by term
        dims, ranks = (4, 3, 2), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        mask = {
            "fortran-boolean": lambda: ObservationMask(
                np.asfortranarray(mask.boolean())
            ),
            "empty": lambda: ObservationMask.empty(dims),
            "full": lambda: ObservationMask.full(dims),
        }[kind]()
        m = np.asfortranarray(m)
        sel = mask.boolean()
        for beta in betas_in_force(cfg):
            state = randomized_state(41, dims, ranks, cfg, m, mask, beta)
            expected = z_step_oracle(state, cfg, m, mask)
            update_z(state, cfg)
            np.testing.assert_array_equal(state.z[sel], m[sel])
            np.testing.assert_array_equal(state.z[~sel], expected[~sel])

    def test_full_mask_copies_data(self):
        dims, ranks = (3, 3, 3), (2, 2, 2)
        m, _, cfg = small_problem(dims=dims, ranks=ranks)
        mask = ObservationMask.full(dims)
        state = randomized_state(29, dims, ranks, cfg, m, mask)
        update_z(state, cfg)
        np.testing.assert_array_equal(state.z, m)

    def test_empty_mask_mean_formula(self):
        dims, ranks = (3, 3, 3), (2, 2, 2)
        m, _, cfg = small_problem(dims=dims, ranks=ranks)
        mask = ObservationMask.empty(dims)
        for beta in betas_in_force(cfg):
            state = randomized_state(31, dims, ranks, cfg, m, mask, beta)
            zhat = multilinear(state.s, state.x)
            expected = cfg.lam * zhat
            for i in cfg.smoothed_modes():
                expected += beta * state.w[i] - beta * state.u[i]
            for i in unsmoothed_modes(cfg):
                expected += beta * state.z
            expected /= cfg.lam + 3.0 * beta
            update_z(state, cfg)
            np.testing.assert_allclose(state.z, expected, atol=1e-13)


class TestUpdateW:
    def test_linear_system_oracle(self):
        dims, ranks = (4, 3, 2), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        for beta in betas_in_force(cfg):
            state = randomized_state(37, dims, ranks, cfg, m, mask, beta)
            check_w_update(state, cfg)

    def test_iterates_stay_c_contiguous(self):
        # the Tucker reconstruction comes out of its last mode product in a
        # permuted layout; Z, and W_i and U_i built from it, must not
        dims, ranks = (6, 5, 4), (2, 2, 2)
        m, mask, _ = small_problem(dims=dims, ranks=ranks)
        cfg = preset_config("traffic-wholeday", ranks=ranks)
        state = init_state(m, mask, cfg)
        for _ in range(2):
            step(state, cfg)
        assert state.z.flags.c_contiguous
        for i in cfg.smoothed_modes():
            assert state.w[i].flags.c_contiguous
            assert state.u[i].flags.c_contiguous

    @pytest.mark.parametrize("ratio", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize(
        "dims",
        [(7,), (17, 2), (4, 20, 7), (20, 3, 16), (2, 17, 3, 5), (3, 2, 17, 2, 16)],
        ids=lambda dims: "x".join(map(str, dims)),
    )
    def test_every_route_in_every_layout(self, dims, ratio):
        # short end axes (one matrix product by T_i^{-1}), long first axes
        # (swept in place) and middle or long last axes (swept in a swapped
        # copy), with beta/omega_i from 1e-6 to 1e6; each W_i against the
        # reference sweep and a dense solve of its unfolding
        order = len(dims)
        rng = np.random.default_rng(order)
        m = rng.standard_normal(dims)
        mask = ObservationMask(rng.random(dims) < 0.7)
        cfg = SolverConfig(
            ranks=(1,) * order,
            alpha=(0.1,) * order,
            beta=0.1,
            omega=(0.1 / ratio,) * order,
        )
        cases = itertools.product(betas_in_force(cfg), ("C", "F", "strided"))
        for beta, layout in cases:
            state = randomized_state(
                order, dims, (1,) * order, cfg, m, mask, beta
            )
            state.z = relayout(state.z, layout)
            for i in cfg.smoothed_modes():
                state.w[i] = relayout(state.w[i], layout)
                state.u[i] = relayout(state.u[i], layout)
            expected = w_step_oracle(state, cfg)
            dense = {
                i: dense_w_solve(state, cfg, i) for i in cfg.smoothed_modes()
            }
            update_w(state, cfg)
            for i in cfg.smoothed_modes():
                assert_w_close(state.w[i], expected[i])
                assert_w_close(state.w[i], dense[i])

    def test_omega_zero_closed_form(self):
        # with omega = 0 everywhere there is nothing to split off: no W_i, no
        # U_i, and Z moves to (lam*Zhat + 3*beta*Z_prev) / (lam + 3*beta)
        dims, ranks = (3, 3, 3), (2, 2, 2)
        m, _, _ = small_problem(dims=dims, ranks=ranks)
        mask = ObservationMask.empty(dims)
        cfg = SolverConfig(ranks=ranks, beta=0.4, omega=(0.0, 0.0, 0.0))
        for beta in betas_in_force(cfg):
            state = randomized_state(41, dims, ranks, cfg, m, mask, beta)
            assert state.w == [None] * 3 and state.u == [None] * 3
            assert state.w_ldl == [None] * 3
            expected = (
                cfg.lam * multilinear(state.s, state.x) + 3.0 * beta * state.z
            ) / (cfg.lam + 3.0 * beta)
            update_z(state, cfg)
            update_w(state, cfg)
            update_duals(state, cfg)
            np.testing.assert_allclose(state.z, expected, atol=1e-13)
            assert state.w == [None] * 3 and state.u == [None] * 3

    def test_stationarity_probe(self):
        # each W_i minimizes
        # omega_i*||A_i W_(i)||^2 - <U_i, W_i> + beta/2*||Z - W_i||^2,
        # U_i = beta*u_i
        dims, ranks = (4, 3, 2), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        rng = np.random.default_rng(1)
        for beta in betas_in_force(cfg):
            state = randomized_state(43, dims, ranks, cfg, m, mask, beta)
            update_w(state, cfg)
            for i in cfg.smoothed_modes():
                a = smoothing_matrix(cfg, dims, i)

                def obj(w):
                    return (
                        cfg.omega[i] * np.sum((a @ unfold(w, i)) ** 2)
                        - np.sum(beta * state.u[i] * w)
                        + 0.5 * beta * frobenius(state.z - w) ** 2
                    )

                best = obj(state.w[i])
                for _ in range(50):
                    d = rng.standard_normal(dims)
                    d *= 1e-4 / np.linalg.norm(d)
                    assert obj(state.w[i] + d) >= best - 1e-12


class TestUpdateDuals:
    def test_ascent_identities(self):
        dims, ranks = (4, 3, 2), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        smoothed = cfg.smoothed_modes()
        for beta in betas_in_force(cfg):
            state = randomized_state(47, dims, ranks, cfg, m, mask, beta)
            u_before = {i: state.u[i].copy() for i in smoothed}
            t_before = [t.copy() for t in state.t]
            lag_before = augmented_lagrangian(state, cfg)
            update_duals(state, cfg)
            gap = 0.0
            for i in smoothed:
                # U_i = beta*u_i rises by beta*(Z - W_i)
                np.testing.assert_allclose(
                    beta * state.u[i] - beta * u_before[i],
                    beta * (state.z - state.w[i]),
                )
                gap += frobenius(state.z - state.w[i]) ** 2
            for i in unsmoothed_modes(cfg):
                assert state.u[i] is None
            for i in range(3):
                np.testing.assert_allclose(
                    beta * state.t[i] - beta * t_before[i],
                    beta * (state.x[i] - state.y[i]),
                )
                gap += frobenius(state.x[i] - state.y[i]) ** 2
            # the dual step raises the Lagrangian by exactly beta * sum of
            # squared residuals
            delta = augmented_lagrangian(state, cfg) - lag_before
            assert delta == pytest.approx(beta * gap, rel=1e-9, abs=1e-9)


class TestInPlaceBlocks:
    # Z, W_i and U_i of a random state in each layout, at each of
    # betas_in_force, go through the blocks; the blocks write into the
    # state's arrays and buffers, and give bitwise what the fresh-array
    # oracles give, except W_i, whose matrix product or scaled sweep is
    # within 1e-12 of the reference sweep

    def problems(self, layout, seed, held=False):
        dims, ranks = (5, 4, 3), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        for beta in betas_in_force(cfg):
            state = randomized_state(seed, dims, ranks, cfg, m, mask, beta)
            state.z = relayout(state.z, layout)
            for i in cfg.smoothed_modes():
                state.w[i] = relayout(state.w[i], layout)
                state.u[i] = relayout(state.u[i], layout)
            if held:
                state.spare = np.full(dims, np.nan)
                state.scratch = np.full(dims, np.nan)
            yield state, m, mask, cfg

    @LAYOUTS
    def test_factor_step(self, layout):
        for state, _, _, cfg in self.problems(layout, 71, held=True):
            check_factor_update(state, cfg)

    @LAYOUTS
    @BUFFERS_HELD
    def test_z_step(self, layout, held):
        for state, m, mask, cfg in self.problems(layout, 73, held):
            z_prev, spare = state.z, state.spare
            kept = z_prev.copy()
            expected = z_step_oracle(state, cfg, m, mask)
            # the step forms no fit term: it returns nothing
            assert update_z(state, cfg) is None
            np.testing.assert_array_equal(state.z, expected)
            assert state.z.flags.c_contiguous
            np.testing.assert_array_equal(z_prev, kept)
            # the new Z took the spare buffer, which took Z_prev in C order
            if held:
                assert state.z is spare
            np.testing.assert_array_equal(state.spare, kept)
            assert state.spare.flags.c_contiguous

    @LAYOUTS
    @BUFFERS_HELD
    def test_w_step(self, layout, held):
        for state, _, _, cfg in self.problems(layout, 79, held):
            expected = w_step_oracle(state, cfg)
            arrays = list(state.w)
            update_w(state, cfg)
            assert state.w == arrays  # the same objects, written in place
            for i in cfg.smoothed_modes():
                assert state.w[i] is arrays[i]
                assert_w_close(state.w[i], expected[i])

    @LAYOUTS
    @BUFFERS_HELD
    def test_dual_step(self, layout, held):
        for state, _, _, cfg in self.problems(layout, 83, held):
            u, t, residuals = dual_step_oracle(state, cfg)
            arrays = list(state.u)
            residuals_got = update_duals(state, cfg)
            assert residuals_got == pytest.approx(residuals, rel=1e-12)
            for i in cfg.smoothed_modes():
                assert state.u[i] is arrays[i]
                np.testing.assert_array_equal(state.u[i], u[i])
            for got_t, expected in zip(state.t, t):
                np.testing.assert_array_equal(got_t, expected)

    def test_overflowing_dual_ascent_is_numerical_error(self):
        # a finite U_1 near the float64 maximum plus beta times a finite
        # gap Z - W_1 overflows; the ascent raises at once, naming the
        # iteration in progress, with no full-size scan of U_1
        m, mask, cfg = small_problem()
        state = init_state(m, mask, cfg)
        state.z = np.full(state.dims, 1e308)
        state.w[1] = np.zeros(state.dims)
        state.u[1] = np.full(state.dims, 1.79e308)
        with pytest.raises(NumericalError, match="U_1 at iteration 1$"):
            update_duals(state, cfg)

    @LAYOUTS
    def test_iterations_through_one_workspace(self, layout):
        # every block, three times, on one state whose two buffers Z_prev
        # and every step's full-size products pass through; each step
        # gives what its oracle gives on the state it starts from, bitwise
        # but for W_i
        for state, m, mask, cfg in self.problems(layout, 89):
            for _ in range(3):
                update_core(state, cfg, *update_factors(state, cfg))
                update_y(state, cfg)
                z = z_step_oracle(state, cfg, m, mask)
                update_z(state, cfg)
                np.testing.assert_array_equal(state.z, z)
                w = w_step_oracle(state, cfg)
                update_w(state, cfg)
                u, t, _ = dual_step_oracle(state, cfg)
                update_duals(state, cfg)
                for i in cfg.smoothed_modes():
                    assert_w_close(state.w[i], w[i])
                    np.testing.assert_array_equal(state.u[i], u[i])
                for got, expected in zip(state.t, t):
                    np.testing.assert_array_equal(got, expected)


def run_balanced(state, cfg, iterations=5):
    """`iterations` steps on `state`, each followed by residual balancing
    as in :func:`solve`, so the slab runs rescale their duals too; returns
    the records."""
    records = []
    for _ in range(iterations):
        records.append(step(state, cfg))
        set_beta(state, cfg, _balanced(state.beta, records[-1]))
    return records


def slab_problems():
    """(id, state factory, config): the TestInPlaceBlocks states in each
    layout at each of betas_in_force, and orders 1 to 5 in C order with
    smoothed and unsmoothed modes."""
    for layout in ("C", "F", "strided"):
        for k, problem in enumerate(TestInPlaceBlocks().problems(layout, 97)):
            yield f"{layout}-{k}", problem[0], problem[3]
    for order in range(1, 6):
        dims = (6, 5, 4, 3, 2)[:order]
        rng = np.random.default_rng(order)
        m = 100.0 * rng.random(dims)
        mask = ObservationMask(rng.random(dims) < 0.6)
        cfg = SolverConfig(
            ranks=tuple(min(2, d) for d in dims),
            alpha=(0.3,) * order,
            omega=(1.0, 0.0, 0.5, 0.0, 0.2)[:order],
            sigma=0.1,
            lam=1.0,
        )
        yield f"order-{order}", init_state(m, mask, cfg), cfg


class TestSlabs:
    def test_slab_size_leaves_the_iterates_bitwise(self, monkeypatch):
        # the Z step's chain, the dual step's gap and ascent and the
        # stopping test's difference run slab by slab along axis 0; with
        # slabs of one row, each row longer than a slab, and of two or
        # four rows, with a shorter last slab, five balanced iterations
        # give the default run's state bit for bit. Only the sums of
        # squares differ by slabbing, so the residuals, the relative change
        # and the Lagrangian agree to rounding
        import lrsetd.solver as solver_module

        arrays = ("x", "y", "t", "w", "u")
        for name, start, cfg in slab_problems():
            row = math.prod(start.dims[1:])
            expected = copy.deepcopy(start)
            records = run_balanced(expected, cfg)
            for size in (1, 2 * row, 4 * row):
                slabs = -(-start.dims[0] // max(1, size // row))
                assert slabs > 1 or start.dims[0] == 1, name
                monkeypatch.setattr(solver_module, "_SLAB", size)
                state = copy.deepcopy(start)
                got = run_balanced(state, cfg)
                lagrangian = augmented_lagrangian(state, cfg)
                monkeypatch.undo()
                assert state.z.tobytes() == expected.z.tobytes(), name
                assert state.s.tobytes() == expected.s.tobytes(), name
                for field in arrays:
                    for a, b in zip(getattr(state, field), getattr(expected, field)):
                        assert (a is None) == (b is None), name
                        if a is not None:
                            assert a.tobytes() == b.tobytes(), (name, field)
                for a, b in zip(got, records):
                    exact = ("iteration", "beta", "y_residual", "y_ranks")
                    for field in (*exact, "core_density"):
                        assert getattr(a, field) == getattr(b, field), name
                    for field in ("rel_change", "w_residual", "dual_residual"):
                        assert getattr(a, field) == pytest.approx(
                            getattr(b, field), rel=1e-12
                        ), (name, field)
                assert lagrangian == pytest.approx(
                    augmented_lagrangian(expected, cfg), rel=1e-12
                ), name


def dual_identity_error(state, cfg):
    """Largest relative gap between the scaled dual u_i and
    (2*omega_i/beta)*A_i^T A_i W_i over the smoothed modes, with the dense
    A_i and the state's beta."""
    worst = 0.0
    for i in cfg.smoothed_modes():
        a = smoothing_matrix(cfg, state.dims, i)
        scale = 2.0 * cfg.omega[i] / state.beta
        expected = scale * a.T @ a @ unfold(state.w[i], i)
        gap = np.linalg.norm(unfold(state.u[i], i) - expected)
        worst = max(worst, gap / np.linalg.norm(expected))
    return worst


class TestDualIdentity:
    # the W and dual steps leave U_i = 2*omega_i*A_i^T A_i W_i after every
    # iteration, which for the scaled u_i = U_i/beta reads
    # u_i = (2*omega_i/beta)*A_i^T A_i W_i at the beta the iteration ran
    # with
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_holds_after_every_iteration(self, order, seed):
        rng = np.random.default_rng([order, seed])
        dims = tuple(int(d) for d in rng.integers(2, 7, order))
        smoothed = rng.random(order) < 0.6
        smoothed[rng.integers(order)] = True
        omega = tuple(
            float(w) if on else 0.0
            for w, on in zip(rng.uniform(0.01, 3.0, order), smoothed)
        )
        cfg = SolverConfig(
            ranks=tuple(min(2, d) for d in dims),
            alpha=(0.3,) * order,
            omega=omega,
            beta=float(rng.uniform(0.1, 2.0)),
            sigma=0.1,
            lam=1.0,
            max_iter=12,
            tol=1e-300,
        )
        m = 10.0 * rng.standard_normal(dims)
        mask = ObservationMask(rng.random(dims) < 0.7)
        errors = []
        report = solve(
            m, mask, cfg, callback=lambda st: errors.append(
                dual_identity_error(st, cfg)
            )
        )
        assert len(errors) == report.iterations == 12
        assert max(errors) <= 1e-12


class TestLagrangianAndObjective:
    def test_zero_state_values(self):
        dims, ranks = (3, 3, 3), (2, 2, 2)
        cfg = SolverConfig(ranks=ranks)
        mask = ObservationMask.empty(dims)
        state = init_state(np.zeros(dims), mask, cfg)
        state.x = [np.zeros_like(f) for f in state.x]
        state.y = [np.zeros_like(f) for f in state.y]
        state.s = np.zeros(ranks)
        assert augmented_lagrangian(state, cfg) == 0.0
        assert objective_value(state, cfg) == 0.0

    def test_vanishing_residual_drops_penalty(self):
        dims, ranks = (3, 3, 3), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        state = randomized_state(53, dims, ranks, cfg, m, mask)
        for i in cfg.smoothed_modes():
            state.w[i] = state.z.copy()
        state.y = [f.copy() for f in state.x]
        val = augmented_lagrangian(state, cfg)
        # recompute by hand without any consensus terms
        expected = cfg.sigma * np.abs(state.s).sum()
        expected += (cfg.lam / 2.0) * frobenius(
            multilinear(state.s, state.x) - state.z
        ) ** 2
        for i in cfg.smoothed_modes():
            a = smoothing_matrix(cfg, dims, i)
            expected += cfg.omega[i] * np.sum((a @ unfold(state.w[i], i)) ** 2)
        for i in range(3):
            expected += cfg.alpha[i] * np.linalg.svd(
                state.y[i], compute_uv=False
            ).sum()
        assert val == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_smoothness_term_is_formed_slab_by_slab(self, axis):
        # the Lagrangian's ||A_i W_(i)||_F^2 takes the differences along
        # axis i one slab of axis 0 at a time. At 96x96x12, 3.4 slabs,
        # the peak reads 0.29, 0.44 and 0.42 tensors for axis 0, 1 and 2,
        # against 0.99, 1.14 and 1.07 with the differences formed whole
        import lrsetd.solver as solver_module

        w = np.random.default_rng(axis).standard_normal((96, 96, 12))
        head = (slice(None),) * axis
        expected = np.sum(np.diff(w, axis=axis) ** 2)
        expected += np.sum(w[head + (-1,)] ** 2)
        tracemalloc.start()
        try:
            got = solver_module._smoothness(w, axis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(expected, rel=1e-12)
        assert peak < 0.5 * w.nbytes

    def test_primal_pass_never_increases_lagrangian(self):
        dims, ranks = (8, 8, 8), (3, 3, 3)
        for seed in range(3):
            m, mask, cfg = small_problem(seed=seed, dims=dims, ranks=ranks)
            state = init_state(m, mask, cfg)
            prev = augmented_lagrangian(state, cfg)

            def not_increased():
                nonlocal prev
                cur = augmented_lagrangian(state, cfg)
                assert cur <= prev + 1e-8 * max(1.0, abs(prev))
                prev = cur

            for _ in range(20):
                chains = update_factors(state, cfg)
                not_increased()
                update_core(state, cfg, *chains)
                not_increased()
                for block in (update_y, update_w, update_z):
                    block(state, cfg)
                    not_increased()
                update_duals(state, cfg)
                prev = augmented_lagrangian(state, cfg)

    @pytest.mark.parametrize(
        "singular_values",
        [(5.0, 2.0), (1e8, 1e-2)],
        ids=["gram", "svd"],
    )
    def test_objective_nuclear_norms(self, singular_values, monkeypatch):
        # ||X_i||_* from one SVD of each X_i, however well or badly
        # conditioned its Gram
        dims, ranks = (6, 5, 4), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        cfg = replace(cfg, sigma=0.0, omega=(0.0, 0.0, 0.0))
        state = randomized_state(61, dims, ranks, cfg, m, mask)
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((dims[1], 2)))
        state.x[1] = q * np.array(singular_values)
        expected = sum(
            a * np.linalg.svd(x, compute_uv=False).sum()
            for a, x in zip(cfg.alpha, state.x)
        )
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        got = objective_value(state, cfg)
        assert got == pytest.approx(expected, rel=1e-12)
        assert calls == [(d, 2) for d in dims]

    def test_objective_smoothness_term(self):
        dims, ranks = (4, 3, 2), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        state = randomized_state(59, dims, ranks, cfg, m, mask)
        val = objective_value(state, cfg)
        expected = cfg.sigma * np.abs(state.s).sum()
        for i in range(3):
            expected += cfg.alpha[i] * np.linalg.svd(
                state.x[i], compute_uv=False
            ).sum()
            if cfg.omega[i] > 0:
                a = smoothing_matrix(cfg, dims, i)
                expected += cfg.omega[i] * np.sum(
                    (a @ unfold(multilinear(state.s, state.x), i)) ** 2
                )
        assert val == pytest.approx(expected, rel=1e-10)


class TestSolve:
    def test_full_observation_is_exact(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 4, 3))
        cfg = SolverConfig(ranks=(2, 2, 2), max_iter=5)
        report = solve(m, ObservationMask.full(m.shape), cfg)
        np.testing.assert_array_equal(report.recovered, m)
        assert report.iterations <= 2
        # the default sigma and lam zero the core of unit-scale data,
        # which the termination reports although Z is exact here
        assert report.termination == "collapsed"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_zero_core_reports_collapsed(self, seed):
        # a dense rank-(2, 2, 2) tensor at unit RMS, half observed: the
        # first core step thresholds at sigma/(lam*zeta), above every core
        # entry, so Z stays the zero fill and the relative change stops
        # the run after one iteration, at RSE ~0.7
        truth = synthetic_tucker(seed, density=1.0)[0]
        truth /= np.sqrt(np.mean(truth**2))
        observed = np.random.default_rng(seed).random(truth.shape) < 0.5
        cfg = SolverConfig(ranks=(2, 2, 2))
        report = solve(truth, ObservationMask(observed), cfg)
        assert report.termination == "collapsed"
        assert report.iterations == 1
        error = frobenius(report.recovered - truth) / frobenius(truth)
        assert 0.6 < error < 0.8

    def test_surviving_core_keeps_its_termination(self):
        # such a tensor at RMS 10 keeps its core
        truth = synthetic_tucker(0, density=1.0)[0]
        truth *= 10.0 / np.sqrt(np.mean(truth**2))
        observed = np.random.default_rng(0).random(truth.shape) < 0.5
        mask = ObservationMask(observed)
        cfg = SolverConfig(ranks=(2, 2, 2), max_iter=40)
        report = solve(truth, mask, cfg)
        assert report.termination in ("tol", "max_iter")

    def test_huge_tol_one_iteration(self):
        m, mask, _ = small_problem()
        # sigma = 0 keeps the core, so the relative change is the one
        # reason to stop
        cfg = SolverConfig(ranks=(2, 2, 2), sigma=0.0, tol=1e9)
        report = solve(m, mask, cfg)
        assert report.iterations == 1
        assert report.termination == "tol"
        assert len(report.trace) == 1

    def test_max_iter_termination(self):
        # sigma=0 keeps the core alive at unit data scale so the iterates
        # never land on an exact fixed point
        m, mask, _ = small_problem()
        cfg = SolverConfig(
            ranks=(2, 2, 2), sigma=0.0, lam=1.0, tol=1e-300, max_iter=4
        )
        report = solve(m, mask, cfg)
        assert report.iterations == 4
        assert report.termination == "max_iter"

    @pytest.mark.parametrize("scale, floored", [(1e-3, True), (10.0, False)])
    def test_rel_change_is_the_one_stopping_rule(self, scale, floored):
        # ||Z_k - Z_{k-1}||_F / max(||Z_k||_F, 1), bitwise, with Z_0 the
        # zero-filled observations; at scale 1e-3 the floor of 1 applies
        m, mask, _ = small_problem(seed=4)
        m = scale * m
        cfg = SolverConfig(
            ranks=(2, 2, 2),
            sigma=0.0,
            lam=1.0,
            omega=(0.0, 1.0, 0.2),
            max_iter=6,
            tol=1e-300,
        )
        zs = [np.where(mask.boolean(), m, 0.0)]
        report = solve(m, mask, cfg, callback=lambda st: zs.append(st.z.copy()))
        assert report.iterations == len(zs) - 1 == 6
        for rec, prev, z in zip(report.trace, zs, zs[1:]):
            assert (frobenius(z) < 1.0) == floored
            expected = frobenius(z - prev) / max(frobenius(z), 1.0)
            assert rec.rel_change == expected

    def test_projection_exact_every_iteration(self):
        m, mask, _ = small_problem(seed=8)
        cfg = SolverConfig(
            ranks=(2, 2, 2), sigma=0.0, lam=1.0, max_iter=10, tol=1e-300
        )
        sel = mask.boolean()
        worst = []

        def cb(state):
            worst.append(np.abs(state.z[sel] - m[sel]).max())

        solve(m, mask, cfg, callback=cb)
        assert len(worst) == 10
        assert max(worst) == 0.0

    def test_calls_each_public_block_once_per_iteration(self, monkeypatch):
        # a tracer or profiler that wraps the public block functions must
        # see every block, so solve runs each iteration as one step, and
        # the step its blocks, in the ADMM block order
        import lrsetd.solver as solver_module

        blocks = (
            "step",
            "update_factors",
            "update_core",
            "update_y",
            "update_z",
            "update_w",
            "update_duals",
        )
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapped

        for name in blocks:
            fn = getattr(solver_module, name)
            monkeypatch.setattr(solver_module, name, spy(name, fn))
        m, mask, _ = small_problem(seed=5, dims=(5, 4, 3))
        cfg = preset_config(
            "traffic-wholeday",
            ranks=(2, 2, 2),
            sigma=0.0,
            lam=1.0,
            tol=1e-300,
            max_iter=4,
        )
        report = solve(m, mask, cfg)
        assert report.iterations == 4
        assert calls == list(blocks) * 4

    def test_iteration_skips_wrapper_layers(self, monkeypatch):
        # on a small tensor an iteration costs what the Python layers around
        # its BLAS/LAPACK calls cost, so mode_product and unfold permute
        # axes with ndarray.transpose
        calls = 0
        moveaxis = np.moveaxis

        def spy(*args, **kwargs):
            nonlocal calls
            calls += 1
            return moveaxis(*args, **kwargs)

        monkeypatch.setattr(np, "moveaxis", spy)
        truth, _, _ = synthetic_tucker(seed=2, dims=(20, 20, 20))
        mask = ObservationMask(
            np.random.default_rng(3).random(truth.shape) < 0.6
        )
        cfg = preset_config(
            "image", ranks=(2, 2, 2), beta=1.0, max_iter=3, tol=1e-300
        )
        report = solve(np.where(mask.boolean(), truth, 0.0), mask, cfg)
        assert report.iterations == 3
        assert calls == 0

    def test_factor_step_is_one_solve_per_mode(self, monkeypatch):
        # lhs = beta*I + lam*(...) is SPD by construction, so each X_i
        # subproblem is one LU solve, with no Cholesky factorization as a
        # check in front of it
        calls = {"cholesky": 0, "solve": 0}

        def spy(name):
            original = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)

        spy("cholesky")
        spy("solve")
        truth, _, _ = synthetic_tucker(seed=2, dims=(20, 20, 20))
        mask = ObservationMask(
            np.random.default_rng(3).random(truth.shape) < 0.6
        )
        cfg = preset_config(
            "image", ranks=(2, 2, 2), beta=1.0, max_iter=3, tol=1e-300
        )
        report = solve(np.where(mask.boolean(), truth, 0.0), mask, cfg)
        assert report.iterations == 3
        assert calls == {"cholesky": 0, "solve": 3 * 3}

    def test_spectra_come_from_the_grams(self, monkeypatch):
        # each iteration's Y-step prox takes one eigh of each r x r Gram and
        # no SVD, and the core step's spectral norms one eigvalsh of each
        # factor Gram; counted between callbacks, since the final
        # Lagrangian (an SVD of each Y_i) and objective (an SVD of each
        # X_i) run once, after the last one
        calls = {"svd": 0, "eigh": 0, "eigvalsh": 0}

        def spy(name):
            original = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)

        for name in calls:
            spy(name)
        truth, _, _ = synthetic_tucker(seed=2, dims=(20, 20, 20))
        mask = ObservationMask(
            np.random.default_rng(3).random(truth.shape) < 0.6
        )
        cfg = preset_config(
            "image", ranks=(2, 2, 2), beta=1.0, max_iter=3, tol=1e-300
        )
        counts = [dict(calls)]
        report = solve(
            np.where(mask.boolean(), truth, 0.0),
            mask,
            cfg,
            callback=lambda state: counts.append(dict(calls)),
        )
        counts.append(dict(calls))
        steps = [
            {name: after[name] - before[name] for name in calls}
            for before, after in zip(counts, counts[1:])
        ]
        assert report.iterations == 3
        assert steps == [{"svd": 0, "eigh": 3, "eigvalsh": 3}] * 3 + [
            {"svd": 6, "eigh": 0, "eigvalsh": 0}
        ]

    def test_final_values_computed_once_per_solve(self, monkeypatch):
        # the trace carries no Lagrangian or objective: solve calls each
        # from-scratch function once, after the last iteration
        import lrsetd.solver as solver_module

        calls = []
        for name in ("augmented_lagrangian", "objective_value"):
            fn = getattr(solver_module, name)

            def counted(*args, name=name, fn=fn, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(solver_module, name, counted)
        m, mask, _ = small_problem(seed=5, dims=(5, 4, 3))
        cfg = preset_config(
            "traffic-wholeday",
            ranks=(2, 2, 2),
            sigma=0.0,
            lam=1.0,
            tol=1e-300,
            max_iter=6,
        )
        iterations = []
        report = solve(
            m, mask, cfg, callback=lambda state: iterations.append(list(calls))
        )
        assert report.iterations == 6
        assert iterations == [[]] * 6
        assert calls == ["augmented_lagrangian", "objective_value"]

    def test_fortran_ordered_input_made_c_contiguous_once(self):
        # init_state gathers the observed values once, by C-order flat
        # index, and no block reads `m` again; the layout of `m` does not
        # reach the result
        m, mask, _ = small_problem(seed=3, dims=(5, 4, 3))
        cfg = SolverConfig(
            ranks=(2, 2, 2), sigma=0.0, lam=1.0, tol=1e-300, max_iter=6
        )
        from_f = solve(np.asfortranarray(m), mask, cfg)
        from_c = solve(np.ascontiguousarray(m), mask, cfg)
        assert from_f.iterations == from_c.iterations == 6
        np.testing.assert_array_equal(from_f.recovered, from_c.recovered)
        for a, b in zip(from_f.trace, from_c.trace):
            assert replace(a, seconds=0.0) == replace(b, seconds=0.0)
        assert (from_f.lagrangian, from_f.objective) == (
            from_c.lagrangian, from_c.objective
        )

    def test_data_not_read_after_start(self):
        # the state keeps the observed values and the mask's own index, so
        # overwriting all of m after the first iteration changes nothing
        m, mask, _ = small_problem(seed=3, dims=(5, 4, 3))
        cfg = preset_config(
            "traffic-wholeday", ranks=(2, 2, 2), lam=1.0, tol=1e-300,
            max_iter=6,
        )
        assert init_state(m, mask, cfg).index is mask.c_flat_index()
        untouched = solve(m.copy(), mask, cfg)
        overwritten = m.copy()
        report = solve(
            overwritten, mask, cfg, callback=lambda _: overwritten.fill(np.nan)
        )
        assert np.isnan(overwritten).all()
        assert report.iterations == untouched.iterations == 6
        assert report.recovered.tobytes() == untouched.recovered.tobytes()
        for a, b in zip(report.trace, untouched.trace):
            assert replace(a, seconds=0.0) == replace(b, seconds=0.0)
        assert (report.lagrangian, report.objective) == (
            untouched.lagrangian, untouched.objective
        )

    def test_back_to_back_solves_share_no_memory(self):
        # each solve's state allocates its own buffers, one of which the
        # recovered tensor is
        m, mask, _ = small_problem(seed=5, dims=(5, 4, 3))
        cfg = preset_config(
            "traffic-wholeday", ranks=(2, 2, 2), max_iter=5, tol=1e-300
        )
        first, second = solve(m, mask, cfg), solve(m, mask, cfg)
        assert not np.shares_memory(first.recovered, second.recovered)
        np.testing.assert_array_equal(first.recovered, second.recovered)

    @SOLVE_CONFIGS
    def test_matches_reference_admm(self, cfg):
        # the solver drops W_i/U_i on unsmoothed modes; the reference keeps
        # all three pairs, so agreement shows the collapse is exact. The
        # smoothed runs balance beta and the unsmoothed one keeps it fixed,
        # as the paper's ADMM does
        observed, mask = reference_problem(len(cfg.alpha))
        report = solve(observed, mask, cfg)
        balanced = bool(cfg.smoothed_modes())
        assert (len({r.beta for r in report.trace}) > 1) == balanced
        expected = reference_admm(observed, mask.boolean(), cfg, 30)
        got = report.recovered
        assert frobenius(got - expected) <= 1e-10 * frobenius(expected)

    @SOLVE_CONFIGS
    def test_trace_matches_from_scratch_values(self, cfg):
        # the blocks report the residuals and ranks from the gaps and
        # counts they form anyway; every record must equal the values
        # recomputed from fresh arrays on the state it describes, at the
        # state's beta, the one its iteration ran with. The callback passes
        # the caller's config, whose beta is only the start: the Lagrangian
        # it gets is the one at the state's beta, and at the last callback
        # the report's final Lagrangian and objective
        observed, mask = reference_problem(len(cfg.alpha))
        zs = [np.where(mask.boolean(), observed, 0.0)]
        recomputed = []

        def cb(state):
            beta = state.beta
            gaps = [state.z - state.w[i] for i in cfg.smoothed_modes()]
            points = [y + t for y, t in zip(state.y, state.t)]
            recomputed.append(
                dict(
                    iteration=state.iteration,
                    beta=beta,
                    rel_change=np.linalg.norm(state.z - zs[-1])
                    / max(np.linalg.norm(state.z), 1.0),
                    w_residual=max(map(np.linalg.norm, gaps), default=0.0),
                    y_residual=max(
                        np.linalg.norm(x - y) for x, y in zip(state.x, state.y)
                    ),
                    dual_residual=beta * np.linalg.norm(state.z - zs[-1]),
                    # the prox input X_i + t_i, before the ascent, is
                    # Y_i + t_i after it
                    y_ranks=tuple(
                        int(np.sum(np.linalg.svd(p, compute_uv=False) > a / beta))
                        for p, a in zip(points, cfg.alpha)
                    ),
                    core_density=np.mean(state.s != 0),
                    lagrangian=augmented_lagrangian(state, cfg),
                    from_scratch=lagrangian_oracle(state, cfg),
                    objective=objective_value(state, cfg),
                )
            )
            zs.append(state.z.copy())

        report = solve(observed, mask, cfg, callback=cb)
        assert len(recomputed) == report.iterations == 30
        assert report.trace[0].beta == cfg.beta
        for rec, expected in zip(report.trace, recomputed):
            assert rec.iteration == expected["iteration"]
            assert rec.beta == expected["beta"]
            assert rec.y_ranks == expected["y_ranks"]
            assert rec.core_density == expected["core_density"]
            for name in ("rel_change", "w_residual", "y_residual", "dual_residual"):
                assert getattr(rec, name) == pytest.approx(
                    expected[name], rel=1e-12
                )
            assert expected["lagrangian"] == pytest.approx(
                expected["from_scratch"], rel=1e-12
            )
        assert report.lagrangian == recomputed[-1]["lagrangian"]
        assert report.objective == recomputed[-1]["objective"]
        assert [f.name for f in fields(IterationRecord)] == [
            "iteration",
            "beta",
            "rel_change",
            "w_residual",
            "y_residual",
            "dual_residual",
            "y_ranks",
            "core_density",
            "seconds",
        ]

    @pytest.mark.parametrize("horizon", [1, 5])
    def test_beta_follows_the_balancing_rule(self, monkeypatch, horizon):
        # beta changes only after an iteration k <= the balancing horizon,
        # by the rule on that iteration's own record, and nothing else
        # moves it
        import lrsetd.solver as solver_module

        monkeypatch.setattr(solver_module, "_BALANCE_ITERS", horizon)
        observed, mask = reference_problem()
        cfg = preset_config(
            "traffic-wholeday", ranks=(3, 3, 2), max_iter=30, tol=1e-300
        )
        trace = solve(observed, mask, cfg).trace
        assert trace[0].beta == cfg.beta
        for before, rec in zip(trace, trace[1:]):
            expected = before.beta
            if before.iteration <= horizon:
                if before.w_residual > 10 * before.dual_residual:
                    expected = 2 * before.beta
                elif before.dual_residual > 10 * before.w_residual:
                    expected = before.beta / 2
            assert rec.beta == expected
        assert any(a.beta != b.beta for a, b in zip(trace, trace[1:]))

    def test_synthetic_recovery(self):
        from lrsetd.masks import random_mask

        truth, _, _ = synthetic_tucker(seed=4)
        mask = random_mask(truth.shape, 0.6, seed=104)
        cfg = preset_config("image", ranks=(2, 2, 2), beta=1.0)
        report = solve(truth, mask, cfg)
        err = frobenius(report.recovered - truth) / frobenius(truth)
        assert err < 0.05

    def test_four_way_synthetic_recovery(self):
        from lrsetd.masks import random_mask

        truth, _, _ = synthetic_tucker(
            seed=4, dims=(20, 16, 12, 8), ranks=(2,) * 4, density=0.25
        )
        mask = random_mask(truth.shape, 0.6, seed=104)
        cfg = SolverConfig(
            ranks=(2,) * 4,
            alpha=(1 / 3,) * 4,
            omega=(1.0, 1.0, 0.0, 0.0),
            beta=1.0,
        )
        report = solve(truth, mask, cfg)
        err = frobenius(report.recovered - truth) / frobenius(truth)
        assert err < 0.05


class TestStep:
    @SOLVE_CONFIGS
    def test_hand_written_loop_reproduces_solve(self, cfg):
        # solve is init_state, then step with residual balancing between
        # steps through set_beta; a loop over the public pieces gets the
        # same run bit for bit
        observed, mask = reference_problem(len(cfg.alpha))
        report = solve(observed, mask, cfg)
        state = init_state(observed, mask, cfg)
        horizon = min(_BALANCE_ITERS, cfg.max_iter - 1)
        trace = []
        for k in range(1, cfg.max_iter + 1):
            trace.append(step(state, cfg))
            if trace[-1].rel_change <= cfg.tol:
                break
            if cfg.smoothed_modes() and k <= horizon:
                set_beta(state, cfg, _balanced(state.beta, trace[-1]))
        assert state.iteration == report.iterations == len(trace) == 30
        assert state.z.tobytes() == report.recovered.tobytes()
        assert [replace(r, seconds=0.0) for r in trace] == [
            replace(r, seconds=0.0) for r in report.trace
        ]

    def test_paper_block_order_gives_the_same_run(self, monkeypatch):
        # the paper runs the Y prox before the core step; step runs the
        # core step first, on the factor sweep's products, since neither
        # reads what the other writes. Five balanced iterations in the
        # paper's order, chains = update_factors, update_y, then
        # update_core(state, cfg, *chains), with step's own bookkeeping,
        # give step's run bit for bit, in each layout and at orders 1 to 5
        import lrsetd.solver as solver_module

        pending = []

        def y_then_core(state, cfg):
            ranks = update_y(state, cfg)
            update_core(state, cfg, *pending.pop())
            return ranks

        for name, start, cfg in slab_problems():
            expected = copy.deepcopy(start)
            records = run_balanced(expected, cfg)
            monkeypatch.setattr(
                solver_module,
                "update_core",
                lambda state, cfg, *chains: pending.append(chains),
            )
            monkeypatch.setattr(solver_module, "update_y", y_then_core)
            state = copy.deepcopy(start)
            got = run_balanced(state, cfg)
            monkeypatch.undo()
            assert not pending, name
            assert (state.iteration, state.beta) == (
                expected.iteration,
                expected.beta,
            ), name
            for field in ("s", "z", "spare", "scratch", "x", "y", "t", "w", "u"):
                a, b = getattr(state, field), getattr(expected, field)
                pairs = zip(a, b) if isinstance(a, list) else [(a, b)]
                for a, b in pairs:
                    assert (a is None) == (b is None), (name, field)
                    if a is not None:
                        assert a.tobytes() == b.tobytes(), (name, field)
            assert [replace(r, seconds=0.0) for r in got] == [
                replace(r, seconds=0.0) for r in records
            ], name

    @pytest.mark.parametrize("scale", [4.0, 0.25])
    def test_beta_changed_mid_run(self, scale):
        # a caller moves beta between steps with set_beta: the W step of
        # the changed state solves the system at the new beta, and the next
        # step runs with it and says so
        m, mask, _ = small_problem(seed=5, dims=(5, 4, 3))
        cfg = preset_config(
            "traffic-wholeday", ranks=(2, 2, 2), lam=1.0, tol=1e-300
        )
        state = init_state(m, mask, cfg)
        for _ in range(3):
            assert step(state, cfg).beta == cfg.beta
        set_beta(state, cfg, scale * cfg.beta)
        assert state.beta == scale * cfg.beta
        changed = copy.deepcopy(state)
        expected = w_step_oracle(changed, cfg)
        dense = {i: dense_w_solve(changed, cfg, i) for i in expected}
        update_w(changed, cfg)
        for i in cfg.smoothed_modes():
            assert_w_close(changed.w[i], expected[i])
            assert_w_close(changed.w[i], dense[i])
        record = step(state, cfg)
        assert (record.iteration, record.beta) == (4, scale * cfg.beta)

    def test_set_beta_in_force_changes_nothing(self):
        m, mask, cfg = small_problem()
        state = randomized_state(3, (4, 3, 2), (2, 2, 2), cfg, m, mask)
        w_ldl = state.w_ldl
        duals = [state.u[i] for i in cfg.smoothed_modes()] + state.t
        kept = [d.copy() for d in duals]
        set_beta(state, cfg, cfg.beta)
        assert state.w_ldl is w_ldl
        for d, k in zip(duals, kept):
            assert d.tobytes() == k.tobytes()
        set_beta(state, cfg, 2 * cfg.beta)
        assert state.w_ldl is not w_ldl and state.beta == 2 * cfg.beta

    def test_set_beta_keeps_the_unscaled_duals(self):
        # u_i and t_i are U_i/beta and T_i/beta: a new beta rescales them
        # in place, leaving beta*u_i and beta*t_i as they were
        m, mask, cfg = small_problem()
        state = randomized_state(5, (4, 3, 2), (2, 2, 2), cfg, m, mask)
        duals = [state.u[i] for i in cfg.smoothed_modes()] + state.t
        for beta in (0.3, 4.0 * cfg.beta, 0.7, 1e-3):
            unscaled = [state.beta * d for d in duals]
            set_beta(state, cfg, beta)
            assert [state.u[i] for i in cfg.smoothed_modes()] + state.t == duals
            for d, expected in zip(duals, unscaled):
                np.testing.assert_allclose(beta * d, expected, rtol=1e-15, atol=0)

    def test_set_beta_overflowing_rescale_is_numerical_error(self):
        m, mask, cfg = small_problem()
        state = init_state(m, mask, cfg)
        state.u[1][0, 0, 0] = 1e308
        with pytest.raises(NumericalError, match="scaled duals"):
            set_beta(state, cfg, cfg.beta / 4)

    @pytest.mark.parametrize("beta", [0.0, -1.0, np.inf, np.nan])
    def test_set_beta_rejects_a_penalty_no_solve_has(self, beta):
        m, mask, cfg = small_problem()
        state = init_state(m, mask, cfg)
        w_ldl = state.w_ldl
        with pytest.raises(ValueError, match="beta must be positive"):
            set_beta(state, cfg, beta)
        assert (state.beta, state.w_ldl) == (cfg.beta, w_ldl)

    def test_non_finite_state_names_the_step(self):
        m, mask, cfg = small_problem(seed=5, dims=(5, 4, 3))
        state = init_state(m, mask, cfg)
        step(state, cfg)
        step(state, cfg)
        state.t[0][0, 0] = np.nan
        # the X_0 subproblem of the next iteration reads T_0 first
        with pytest.raises(
            NumericalError, match="X_0 subproblem at iteration 3$"
        ):
            step(state, cfg)
        assert state.iteration == 2


# state arrays to corrupt after iteration 1, as (SolverState field, mode);
# X_0 is left out because step 0 of the factor sweep overwrites it before
# anything reads it, and the image preset smooths modes 0 and 1
CORRUPTED_ARRAYS = (
    [("s", None), ("z", None), ("x", 1)]
    + [(name, i) for name in ("y", "t") for i in range(3)]
    + [(name, i) for name in ("w", "u") for i in (0, 1)]
)


def solve_corrupted_after_iteration_1(name, mode, value):
    """Solve a small image-preset problem whose state array `name` (mode
    `mode`) gets `value` in its first entry after iteration 1."""
    # data on a 0-255 scale: on [0, 1] data the default alpha/beta shrink
    # the factors and core to zero and the solve stops by tol after one
    # iteration
    rng = np.random.default_rng(0)
    dims = (8, 7, 6)
    m = 255.0 * rng.random(dims)
    mask = ObservationMask(rng.random(dims) < 0.6)
    cfg = preset_config("image", ranks=(3, 3, 2), max_iter=4, tol=1e-300)

    def corrupt(state):
        if state.iteration == 1:
            array = getattr(state, name)
            (array if mode is None else array[mode]).flat[0] = value

    with np.errstate(all="ignore"):
        return solve(m, mask, cfg, callback=corrupt)


class TestNonFiniteState:
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "name, mode",
        CORRUPTED_ARRAYS,
        ids=[n if i is None else f"{n}{i}" for n, i in CORRUPTED_ARRAYS],
    )
    def test_injected_value_is_numerical_error(self, name, mode, value):
        with pytest.raises(NumericalError, match="at iteration 2$"):
            solve_corrupted_after_iteration_1(name, mode, value)

    def test_overflowing_prox_input_is_numerical_error(self):
        # a finite X_2 and a finite scaled dual t_2 whose sum, the Y_2 prox
        # input, overflows. In a solve the factor step solves X_2 from
        # beta*(Y_2 - t_2) and leaves X_2 + t_2 within the range of t_2, so
        # the prox runs here on the state after iteration 1
        rng = np.random.default_rng(0)
        dims = (8, 7, 6)
        m = 255.0 * rng.random(dims)
        mask = ObservationMask(rng.random(dims) < 0.6)
        cfg = preset_config("image", ranks=(3, 3, 2), max_iter=4, tol=1e-300)
        state = init_state(m, mask, cfg)
        step(state, cfg)
        state.x[2].flat[0] = state.t[2].flat[0] = 1.7e308
        with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match="Y_2 prox input at iteration 2$"
        ):
            update_y(state, cfg)
