import copy
import itertools
import tracemalloc
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from lrsetd.kernels import tridiag_solve
from lrsetd.solver import (
    PRESETS,
    _factor_plan,
    IterationRecord,
    NumericalError,
    SolverConfig,
    augmented_lagrangian,
    default_ranks,
    init_state,
    objective_value,
    preset_config,
    solve,
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


def randomized_state(seed, dims, ranks, cfg, m, mask):
    """A generic point in the iteration space, not a solver-produced one, so
    block oracles are exercised away from any fixed point."""
    rng = np.random.default_rng(seed)
    state = init_state(m, mask, cfg)
    state.x = [rng.standard_normal(f.shape) for f in state.x]
    state.y = [rng.standard_normal(f.shape) for f in state.y]
    state.t = [rng.standard_normal(f.shape) for f in state.t]
    state.s = rng.standard_normal(ranks)
    state.z = rng.standard_normal(dims)
    for i in cfg.smoothed_modes():
        state.w[i] = rng.standard_normal(dims)
        state.u[i] = rng.standard_normal(dims)
    return state


def unsmoothed_modes(cfg):
    return [i for i in range(len(cfg.omega)) if i not in cfg.smoothed_modes()]


def check_factor_update(state, cfg):
    """Run update_factors; each X_i must solve

        X [beta*I + lam*S_(i)B_i^T B_i S_(i)^T]
            = lam*Z_(i)B_i S_(i)^T + beta*Y_i - T_i

    with B_i materialized explicitly from the other (updated) factors."""
    ranks, modes = state.ranks, range(len(state.x))
    x_old = [f.copy() for f in state.x]
    update_factors(state, cfg)
    for i in modes:
        # Gauss-Seidel: mode i saw the updated factors below it and the
        # pre-sweep factors above it
        mix = [state.x[j] if j < i else x_old[j] for j in modes]
        mix[i] = state.x[i]
        b = kron_others(mix, i)
        s_i = unfold(state.s, i)
        lhs = cfg.beta * np.eye(ranks[i]) + cfg.lam * s_i @ b.T @ b @ s_i.T
        rhs = (
            cfg.lam * unfold(state.z, i) @ b @ s_i.T
            + cfg.beta * state.y[i]
            - state.t[i]
        )
        res = np.linalg.norm(state.x[i] @ lhs - rhs)
        assert res <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def check_core_update(state, cfg):
    """Run update_core; S must be the soft-thresholded gradient step of the
    explicit-Kronecker mode-0 unfolding."""
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
    update_core(state, cfg)
    np.testing.assert_allclose(unfold(state.s, 0), expected, atol=1e-10)


def check_w_update(state, cfg):
    """Run update_w; each smoothed W_i must be C-contiguous and solve
    [beta*I + 2*omega_i*A_i^T A_i] W_(i) = beta*Z_(i) + U_(i) with the dense
    A_i; unsmoothed modes keep no W_i."""
    dims = state.dims
    update_w(state, cfg)
    for i in unsmoothed_modes(cfg):
        assert state.w[i] is None
    for i in cfg.smoothed_modes():
        assert state.w[i].flags.c_contiguous
        a = smoothing_matrix(cfg, dims, i)
        lhs = cfg.beta * np.eye(dims[i]) + 2.0 * cfg.omega[i] * a.T @ a
        rhs = cfg.beta * unfold(state.z, i) + unfold(state.u[i], i)
        res = np.linalg.norm(lhs @ unfold(state.w[i], i) - rhs)
        assert res <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def assert_w_close(got, expected):
    """W_i from the solver's routes, the matrix product by T_i^{-1} or the
    scaled sweep, within 1e-12 relative of the reference sweep."""
    err = np.linalg.norm(got - expected)
    assert err <= 1e-12 * np.linalg.norm(expected)


def dense_w_solve(state, cfg, i):
    """W_i from np.linalg.solve with the dense [beta*I + 2*omega_i*A_i^T A_i]
    on the unfolding of beta*Z + U_i along axis i."""
    n = state.dims[i]
    a = smoothing_matrix(cfg, state.dims, i)
    lhs = cfg.beta * np.eye(n) + 2.0 * cfg.omega[i] * a.T @ a
    lines = np.moveaxis(cfg.beta * state.z + state.u[i], i, 0)
    solved = np.linalg.solve(lhs, lines.reshape(n, -1)).reshape(lines.shape)
    return np.moveaxis(solved, 0, i)


def ldl_matrix(ldl):
    """Dense L D L^T from the coefficients kept in SolverState.w_ldl."""
    lower, inv_d = ldl.lower, ldl.inv_d
    unit = np.eye(inv_d.size) + np.diag(lower, -1)
    return unit @ np.diag(1.0 / inv_d) @ unit.T


def z_step_oracle(state, cfg, m, mask):
    """The Z step from fresh arrays, in the documented evaluation order
    (beta*((lam/beta)*Zhat + sum_i W_i + k*Z) - sum_i U_i) / (lam + N*beta)
    off the mask and M on it."""
    zhat = multilinear(state.s, state.x)
    acc = (cfg.lam / cfg.beta) * zhat
    for i in cfg.smoothed_modes():
        acc += state.w[i]
    for _ in unsmoothed_modes(cfg):
        acc += state.z
    acc *= cfg.beta
    for i in cfg.smoothed_modes():
        acc -= state.u[i]
    z = acc / (cfg.lam + len(state.x) * cfg.beta)
    sel = mask.boolean()
    z[sel] = np.asarray(m)[sel]
    return z


def w_step_oracle(state, cfg):
    """Each smoothed W_i from fresh arrays: the reference sweep of
    beta*Z + U_i along axis i."""
    return {
        i: tridiag_solve_reference(
            state.w_ldl[i], cfg.beta * state.z + state.u[i], i
        )
        for i in cfg.smoothed_modes()
    }


def dual_step_oracle(state, cfg):
    """The new U_i and T_i from fresh arrays, and the primal residuals
    max_i ||Z - W_i||_F (0.0 with no smoothed mode) and max_i ||X_i - Y_i||_F
    of the gaps they add."""
    u, t, w_res, y_res = {}, [], 0.0, 0.0
    for i in cfg.smoothed_modes():
        gap = state.z - state.w[i]
        u[i] = state.u[i] + cfg.beta * gap
        w_res = max(w_res, np.linalg.norm(gap))
    for t_i, x, y in zip(state.t, state.x, state.y):
        gap = x - y
        t.append(t_i + cfg.beta * gap)
        y_res = max(y_res, np.linalg.norm(gap))
    return u, t, (w_res, y_res)


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
        # the kept LDL^T coefficients rebuild [beta*I + 2*omega_i*A_i^T A_i]
        # with A_i the difference matrix
        m, mask, _ = small_problem()
        cfg = SolverConfig(ranks=(2, 2, 2), omega=(0.0, 1.0, 0.2))
        state = init_state(m, mask, cfg)
        # omega = (0, 1, 0.2): mode 0 is unsmoothed and gets no W solve
        assert state.w_ldl[0] is None
        rng = np.random.default_rng(2)
        for i in cfg.smoothed_modes():
            n = m.shape[i]
            a = smoothing_matrix(cfg, m.shape, i)
            t = cfg.beta * np.eye(n) + 2.0 * cfg.omega[i] * a.T @ a
            np.testing.assert_allclose(
                ldl_matrix(state.w_ldl[i]), t, rtol=1e-14, atol=1e-14
            )
            # the W solve with what the state keeps, against the reference
            # sweep and a dense solve
            state.u[i] = rng.standard_normal(m.shape)
            b = cfg.beta * state.z + state.u[i]
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
        state = randomized_state(3, dims, ranks, cfg, m, mask)
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
        # as lam -> 0 the update degenerates to X_i = Y_i - T_i/beta
        dims, ranks = (3, 3, 3), (2, 2, 2)
        m, mask, _ = small_problem(dims=dims, ranks=ranks)
        cfg = SolverConfig(ranks=ranks, lam=1e-30, beta=0.7)
        state = randomized_state(5, dims, ranks, cfg, m, mask)
        expected = [state.y[i] - state.t[i] / cfg.beta for i in range(3)]
        update_factors(state, cfg)
        for i in range(3):
            np.testing.assert_allclose(state.x[i], expected[i], atol=1e-10)


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
        # and the returned Z x_j X_j^T and S x_j G_j over j < N-1, with
        # the new factors and Grams, by the index formula
        order = len(dims)
        cfg = SolverConfig(
            ranks=ranks, alpha=(0.5,) * order, omega=(0.0,) * order,
            lam=0.7, beta=0.3,
        )
        m = np.zeros(dims)
        mask = ObservationMask.full(dims)
        for plan in every_plan(order):
            state = randomized_state(7, dims, ranks, cfg, m, mask)
            state.plan = plan
            x_old = [f.copy() for f in state.x]
            systems = []
            solve_system = np.linalg.solve

            def spy(lhs, rhs):
                systems.append((lhs.copy(), rhs.T.copy()))
                return solve_system(lhs, rhs)

            monkeypatch.setattr(np.linalg, "solve", spy)
            prefix, gram_prefix, grams = update_factors(state, cfg)
            monkeypatch.undo()
            assert len(systems) == order
            for i, (lhs, rhs) in enumerate(systems):
                mix = [state.x[j] if j < i else x_old[j] for j in range(order)]
                b = kron_others(mix, i)
                s_i = unfold_by_index_formula(state.s, i)
                z_i = unfold_by_index_formula(state.z, i)
                want = (
                    cfg.lam * z_i @ b @ s_i.T
                    + cfg.beta * state.y[i]
                    - state.t[i]
                )
                np.testing.assert_allclose(
                    rhs, want, rtol=0, atol=1e-12 * np.linalg.norm(want)
                )
                want = cfg.beta * np.eye(ranks[i])
                want += cfg.lam * s_i @ b.T @ b @ s_i.T
                np.testing.assert_allclose(
                    lhs, want, rtol=0, atol=1e-12 * np.linalg.norm(want)
                )
            for g, f in zip(grams, state.x):
                np.testing.assert_array_equal(g, f.T @ f)
            # both chains have mode N-1 first, then modes 0 to N-2
            last = order - 1
            in_order = (*range(1, order), 0)
            want = unfold_by_index_formula(state.z, last) @ kron_others(
                state.x, last
            )
            assert prefix.shape == (dims[-1], *ranks[:-1])
            np.testing.assert_allclose(
                unfold_by_index_formula(prefix.transpose(in_order), last),
                want,
                rtol=0,
                atol=1e-12 * np.linalg.norm(want),
            )
            want = unfold_by_index_formula(state.s, last) @ kron_others(
                [f.T @ f for f in state.x], last
            ).T
            assert gram_prefix.shape == (ranks[-1], *ranks[:-1])
            np.testing.assert_allclose(
                unfold_by_index_formula(gram_prefix.transpose(in_order), last),
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
            update_factors(state, cfg)
            update_core(state, cfg)
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


class TestIterationMemory:
    @pytest.mark.parametrize(
        "dims, ranks, omega, bound",
        [
            ((60, 50, 40), (6, 3, 4), (1.0, 0.0, 0.5), 0.25),
            ((40, 12, 10, 40), (4, 2, 2, 4), (0.0, 1.0, 0.0, 0.5), 0.25),
            # image-shaped, r_2 = I_2: the sweep's and the reconstruction's
            # products go into the buffers, with no moved copy; the core
            # is a quarter and each factor a sixth of the tensor here. The
            # factor sweep sets the peak, 0.947 tensors (93 120 bytes), and
            # the bound leaves 5 % above it. The core step rises by 0.51,
            # its gradient's two first-axis products holding two
            # core-sized arrays beside S; with a moved copy of S x_1 G_1 it
            # rose by 0.77. With the sweep's suffixes from the last mode
            # down the peak was 1.95, a moved copy of Z x_2 X_2^T
            ((64, 64, 3), (32, 32, 3), (1.0, 1.0, 0.0), 1.0),
        ],
        ids=["order-3", "order-4", "image-r2-full"],
    )
    def test_iteration_allocates_no_full_size_tensor(
        self, dims, ranks, omega, bound
    ):
        # every full-size array of an iteration lives in the state, whose
        # two buffers the first block allocates; in the first two shapes
        # each factor is under 5 % of the tensor and the end modes shrink
        # tenfold, so no mode product reaches a quarter of it. Before
        # those buffers an iteration's peak rose by about two tensors.
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
        rises, start = [], []

        def cb(state):
            # the peak since the last callback, above the memory then held
            if start:
                rises.append(tracemalloc.get_traced_memory()[1] - start[-1])
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])

        tracemalloc.start()
        try:
            report = solve(m, mask, cfg, callback=cb)
        finally:
            tracemalloc.stop()
        assert report.iterations == 6 and len(rises) == 5
        assert max(rises) < bound * m.nbytes

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
        # products here are at most a tenth of the tensor
        dims = (60, 50, 40)
        rng = np.random.default_rng(0)
        m = 100.0 * rng.random(dims)
        mask = ObservationMask(rng.random(dims) < 0.5)
        cfg = SolverConfig(
            ranks=(6, 3, 4), omega=(1.0, 0.0, 0.5), sigma=0.1, lam=1.0
        )
        state = init_state(m, mask, cfg)
        block(state, cfg)
        tracemalloc.start()
        try:
            block(state, cfg)
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
        state = randomized_state(seed, dims, ranks, cfg, m, mask)
        check_factor_update(state, cfg)
        check_core_update(state, cfg)
        check_w_update(state, cfg)


class TestUpdateY:
    def test_prox_input_and_threshold(self):
        dims, ranks = (4, 3, 2), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        state = randomized_state(7, dims, ranks, cfg, m, mask)
        inputs = [state.x[i] + state.t[i] / cfg.beta for i in range(3)]
        update_y(state, cfg)
        rng = np.random.default_rng(42)
        for i in range(3):
            tau = cfg.alpha[i] / cfg.beta
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

        def sub_obj(s):
            fit = multilinear(s, state.x) - state.z
            return cfg.sigma * np.abs(s).sum() + (cfg.lam / 2.0) * (
                frobenius(fit) ** 2
            )

        before = sub_obj(state.s)
        update_core(state, cfg)
        assert sub_obj(state.s) <= before + 1e-10

    def test_sweep_products_equal_rebuilt_ones(self):
        # update_factors hands its chains of Z and S and its Grams to
        # update_core; without them update_core rebuilds all three from the
        # same factors
        dims, ranks = (5, 4, 3), (2, 3, 2)
        m, mask, _ = small_problem(seed=4, dims=dims, ranks=ranks)
        cfg = SolverConfig(ranks=ranks, beta=0.5, lam=1.0, sigma=1e-3)
        rebuilt = randomized_state(43, dims, ranks, cfg, m, mask)
        passed = copy.deepcopy(rebuilt)
        s_before = rebuilt.s.copy()
        update_factors(rebuilt, cfg)
        update_core(rebuilt, cfg)
        update_core(passed, cfg, *update_factors(passed, cfg))
        assert rebuilt.s.tobytes() == passed.s.tobytes()
        assert not np.array_equal(rebuilt.s, s_before)

    @ORACLE_SHAPES
    def test_sigma_zero_is_plain_gradient_step(self, dims, ranks):
        m, mask, _ = small_problem(dims=dims, ranks=ranks)
        cfg = SolverConfig(ranks=ranks, sigma=0.0)
        state = randomized_state(13, dims, ranks, cfg, m, mask)
        check_core_update(state, cfg)

    def test_zero_factors_skip(self):
        dims, ranks = (3, 3, 3), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        state = randomized_state(17, dims, ranks, cfg, m, mask)
        state.x = [np.zeros_like(f) for f in state.x]
        s_before = state.s.copy()
        update_core(state, cfg)
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
        # where an unsmoothed mode has W_i = Z_prev and U_i = 0
        dims, ranks = (4, 3, 2), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        state = randomized_state(23, dims, ranks, cfg, m, mask)
        z_prev = state.z
        update_z(state, cfg)
        zhat = multilinear(state.s, state.x)
        grad = cfg.lam * (state.z - zhat)
        for i in cfg.smoothed_modes():
            grad += state.u[i] + cfg.beta * (state.z - state.w[i])
        for i in unsmoothed_modes(cfg):
            grad += cfg.beta * (state.z - z_prev)
        off = ~mask.boolean()
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
        state = randomized_state(41, dims, ranks, cfg, m, mask)
        expected = z_step_oracle(state, cfg, m, mask)
        update_z(state, cfg)
        sel = mask.boolean()
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
        state = randomized_state(31, dims, ranks, cfg, m, mask)
        zhat = multilinear(state.s, state.x)
        expected = cfg.lam * zhat
        for i in cfg.smoothed_modes():
            expected += cfg.beta * state.w[i] - state.u[i]
        for i in unsmoothed_modes(cfg):
            expected += cfg.beta * state.z
        expected /= cfg.lam + 3.0 * cfg.beta
        update_z(state, cfg)
        np.testing.assert_allclose(state.z, expected, atol=1e-13)


class TestUpdateW:
    def test_linear_system_oracle(self):
        dims, ranks = (4, 3, 2), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        state = randomized_state(37, dims, ranks, cfg, m, mask)
        check_w_update(state, cfg)

    def test_iterates_stay_c_contiguous(self):
        # the Tucker reconstruction comes out of its last mode product in a
        # permuted layout; Z, and W_i and U_i built from it, must not
        dims, ranks = (6, 5, 4), (2, 2, 2)
        m, mask, _ = small_problem(dims=dims, ranks=ranks)
        cfg = preset_config("traffic-wholeday", ranks=ranks)
        state = init_state(m, mask, cfg)
        for _ in range(2):
            for step in (update_factors, update_y, update_core):
                step(state, cfg)
            update_z(state, cfg)
            update_w(state, cfg)
            update_duals(state, cfg)
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
        for layout in ("C", "F", "strided"):
            state = randomized_state(order, dims, (1,) * order, cfg, m, mask)
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
        state = randomized_state(41, dims, ranks, cfg, m, mask)
        assert state.w == [None] * 3 and state.u == [None] * 3
        assert state.w_ldl == [None] * 3
        expected = (
            cfg.lam * multilinear(state.s, state.x) + 3.0 * cfg.beta * state.z
        ) / (cfg.lam + 3.0 * cfg.beta)
        update_z(state, cfg)
        update_w(state, cfg)
        update_duals(state, cfg)
        np.testing.assert_allclose(state.z, expected, atol=1e-13)
        assert state.w == [None] * 3 and state.u == [None] * 3

    def test_stationarity_probe(self):
        # each W_i minimizes
        # omega_i*||A_i W_(i)||^2 - <U_i, W_i> + beta/2*||Z - W_i||^2
        dims, ranks = (4, 3, 2), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        state = randomized_state(43, dims, ranks, cfg, m, mask)
        update_w(state, cfg)
        rng = np.random.default_rng(1)
        for i in cfg.smoothed_modes():
            a = smoothing_matrix(cfg, dims, i)

            def obj(w):
                return (
                    cfg.omega[i] * np.sum((a @ unfold(w, i)) ** 2)
                    - np.sum(state.u[i] * w)
                    + 0.5 * cfg.beta * frobenius(state.z - w) ** 2
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
        state = randomized_state(47, dims, ranks, cfg, m, mask)
        smoothed = cfg.smoothed_modes()
        u_before = {i: state.u[i].copy() for i in smoothed}
        t_before = [t.copy() for t in state.t]
        lag_before = augmented_lagrangian(state, cfg)
        update_duals(state, cfg)
        gap = 0.0
        for i in smoothed:
            np.testing.assert_allclose(
                state.u[i] - u_before[i], cfg.beta * (state.z - state.w[i])
            )
            gap += frobenius(state.z - state.w[i]) ** 2
        for i in unsmoothed_modes(cfg):
            assert state.u[i] is None
        for i in range(3):
            np.testing.assert_allclose(
                state.t[i] - t_before[i], cfg.beta * (state.x[i] - state.y[i])
            )
            gap += frobenius(state.x[i] - state.y[i]) ** 2
        # dual step raises the Lagrangian by exactly beta * sum of residuals
        delta = augmented_lagrangian(state, cfg) - lag_before
        assert delta == pytest.approx(cfg.beta * gap, rel=1e-9, abs=1e-9)


class TestInPlaceBlocks:
    # Z, W_i and U_i of a random state in each layout go through the
    # blocks; the blocks write into the state's arrays and buffers, and
    # give bitwise what the fresh-array oracles give, except W_i, whose
    # matrix product or scaled sweep is within 1e-12 of the reference sweep

    def problem(self, layout, seed, held=False):
        dims, ranks = (5, 4, 3), (2, 2, 2)
        m, mask, cfg = small_problem(dims=dims, ranks=ranks)
        state = randomized_state(seed, dims, ranks, cfg, m, mask)
        state.z = relayout(state.z, layout)
        for i in cfg.smoothed_modes():
            state.w[i] = relayout(state.w[i], layout)
            state.u[i] = relayout(state.u[i], layout)
        if held:
            state.spare = np.full(dims, np.nan)
            state.scratch = np.full(dims, np.nan)
        return state, m, mask, cfg

    @LAYOUTS
    def test_factor_step(self, layout):
        state, _, _, cfg = self.problem(layout, 71, held=True)
        check_factor_update(state, cfg)

    @LAYOUTS
    @BUFFERS_HELD
    def test_z_step(self, layout, held):
        state, m, mask, cfg = self.problem(layout, 73, held)
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
        state, _, _, cfg = self.problem(layout, 79, held)
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
        state, _, _, cfg = self.problem(layout, 83, held)
        u, t, residuals = dual_step_oracle(state, cfg)
        arrays = list(state.u)
        assert update_duals(state, cfg) == pytest.approx(residuals, rel=1e-12)
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
        state, m, mask, cfg = self.problem(layout, 89)
        for _ in range(3):
            chains = update_factors(state, cfg)
            update_y(state, cfg)
            # the core from the sweep's products, which live in the
            # buffers, against the core from products rebuilt afresh
            rebuilt = copy.deepcopy(state)
            update_core(rebuilt, cfg)
            update_core(state, cfg, *chains)
            np.testing.assert_array_equal(state.s, rebuilt.s)
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


def dual_identity_error(state, cfg):
    """Largest relative gap between U_i and 2*omega_i*A_i^T A_i W_i over the
    smoothed modes, with the dense A_i."""
    worst = 0.0
    for i in cfg.smoothed_modes():
        a = smoothing_matrix(cfg, state.dims, i)
        expected = 2.0 * cfg.omega[i] * a.T @ a @ unfold(state.w[i], i)
        gap = np.linalg.norm(unfold(state.u[i], i) - expected)
        worst = max(worst, gap / np.linalg.norm(expected))
    return worst


class TestDualIdentity:
    # solve's trace Lagrangian takes each smoothness term as <W_i, U_i>/2,
    # which holds because the W and dual steps leave
    # U_i = 2*omega_i*A_i^T A_i W_i after every iteration
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

    def test_primal_pass_never_increases_lagrangian(self):
        dims, ranks = (8, 8, 8), (3, 3, 3)
        for seed in range(3):
            m, mask, cfg = small_problem(seed=seed, dims=dims, ranks=ranks)
            state = init_state(m, mask, cfg)
            prev = augmented_lagrangian(state, cfg)
            for _ in range(20):
                for step in (update_factors, update_y, update_core, update_w):
                    step(state, cfg)
                    cur = augmented_lagrangian(state, cfg)
                    assert cur <= prev + 1e-8 * max(1.0, abs(prev))
                    prev = cur
                update_z(state, cfg)
                cur = augmented_lagrangian(state, cfg)
                assert cur <= prev + 1e-8 * max(1.0, abs(prev))
                prev = cur
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
        # see every block, so solve runs its iteration through them, in
        # the ADMM block order
        import lrsetd.solver as solver_module

        blocks = (
            "update_factors",
            "update_y",
            "update_core",
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
        # all three pairs, so agreement shows the collapse is exact
        observed, mask = reference_problem(len(cfg.alpha))
        got = solve(observed, mask, cfg).recovered
        expected = reference_admm(observed, mask.boolean(), cfg, 30)
        assert frobenius(got - expected) <= 1e-10 * frobenius(expected)

    @SOLVE_CONFIGS
    def test_trace_matches_from_scratch_values(self, cfg):
        # the blocks report the residuals and ranks from the gaps and
        # counts they form anyway; every record must equal the values
        # recomputed from fresh arrays on the state it describes, and the
        # report's final Lagrangian and objective the from-scratch
        # functions on the final state
        observed, mask = reference_problem(len(cfg.alpha))
        zs = [np.where(mask.boolean(), observed, 0.0)]
        recomputed = []

        def cb(state):
            gaps = [state.z - state.w[i] for i in cfg.smoothed_modes()]
            points = [y + t / cfg.beta for y, t in zip(state.y, state.t)]
            recomputed.append(
                dict(
                    iteration=state.iteration,
                    rel_change=np.linalg.norm(state.z - zs[-1])
                    / max(np.linalg.norm(state.z), 1.0),
                    w_residual=max(map(np.linalg.norm, gaps), default=0.0),
                    y_residual=max(
                        np.linalg.norm(x - y) for x, y in zip(state.x, state.y)
                    ),
                    dual_residual=cfg.beta * np.linalg.norm(state.z - zs[-1]),
                    # the prox input X_i + T_i/beta, before the ascent, is
                    # Y_i + T_i/beta after it
                    y_ranks=tuple(
                        int(np.sum(np.linalg.svd(p, compute_uv=False) > a / cfg.beta))
                        for p, a in zip(points, cfg.alpha)
                    ),
                    core_density=np.mean(state.s != 0),
                    lagrangian=augmented_lagrangian(state, cfg),
                    objective=objective_value(state, cfg),
                )
            )
            zs.append(state.z.copy())

        report = solve(observed, mask, cfg, callback=cb)
        assert len(recomputed) == report.iterations == 30
        for rec, expected in zip(report.trace, recomputed):
            assert rec.iteration == expected["iteration"]
            assert rec.y_ranks == expected["y_ranks"]
            assert rec.core_density == expected["core_density"]
            for name in ("rel_change", "w_residual", "y_residual", "dual_residual"):
                assert getattr(rec, name) == pytest.approx(
                    expected[name], rel=1e-12
                )
        assert report.lagrangian == recomputed[-1]["lagrangian"]
        assert report.objective == recomputed[-1]["objective"]
        assert [f.name for f in fields(IterationRecord)] == [
            "iteration",
            "rel_change",
            "w_residual",
            "y_residual",
            "dual_residual",
            "y_ranks",
            "core_density",
            "seconds",
        ]

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
        # a finite T_2 passes the X_2 subproblem check, the last step of
        # the sweep, but T_2/beta in the Y_2 prox input overflows
        with pytest.raises(
            NumericalError, match="Y_2 prox input at iteration 2$"
        ):
            solve_corrupted_after_iteration_1("t", 2, 1.7e308)
