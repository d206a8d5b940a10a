"""Acceptance gate: one test per shipping criterion, one printed verdict
line each.

Each test prints ``PASS``/``FAIL criterion-N: <summary>`` before asserting so
the pytest -v log always carries the full scoreboard. Tolerances are pinned;
frozen-seed criteria also pin a regression band around the recorded value so
silent quality drift fails loudly.
"""

import json
import time

import numpy as np
import pytest

from lrsetd.cli import main
from lrsetd.hosvd import hosvd, reconstruction_snr, truncate_core
from lrsetd.io import write_mask, write_tensor
from lrsetd.kernels import soft_shrink, svd_shrink
from lrsetd.masks import MissingSpec, nmae, psnr, random_mask, rse, structured_mask
from lrsetd.solver import (
    SolverConfig,
    augmented_lagrangian,
    init_state,
    preset_config,
    solve,
    update_core,
    update_duals,
    update_factors,
    update_w,
    update_y,
    update_z,
)
from lrsetd.tensor import ObservationMask, multilinear, unfold

from conftest import (
    kron_others,
    smoothing_matrix,
    synthetic_image,
    synthetic_tucker,
)


def verdict(ok, name, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def random_instance(rng, max_dim=4, max_rank=2):
    dims = tuple(int(d) for d in rng.integers(2, max_dim + 1, size=3))
    ranks = tuple(
        int(rng.integers(1, min(max_rank, d) + 1)) for d in dims
    )
    m = rng.standard_normal(dims)
    mask = ObservationMask(rng.random(dims) < 0.7)
    cfg = SolverConfig(
        ranks=ranks,
        beta=float(rng.uniform(0.2, 2.0)),
        lam=float(rng.uniform(0.01, 1.0)),
        omega=tuple(float(w) for w in rng.uniform(0.0, 1.0, size=3)),
        sigma=float(rng.uniform(0.0, 1.0)),
    )
    state = init_state(m, mask, cfg)
    state.x = [rng.standard_normal(f.shape) for f in state.x]
    state.y = [rng.standard_normal(f.shape) for f in state.y]
    state.t = [rng.standard_normal(f.shape) for f in state.t]
    state.s = rng.standard_normal(ranks)
    state.z = rng.standard_normal(dims)
    state.w = [rng.standard_normal(dims) for _ in range(3)]
    state.u = [rng.standard_normal(dims) for _ in range(3)]
    return m, mask, cfg, state


def test_criterion_1_block_updates_solve_their_subproblems():
    """Every closed-form block update satisfies its own optimality system to
    1e-8 on 50 random small instances (runtime bound: 30 s)."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        m, mask, cfg, state = random_instance(rng)
        dims, ranks = state.dims, state.ranks

        x_old = [f.copy() for f in state.x]
        update_factors(state, cfg)
        for i in range(3):
            mix = [state.x[j] if j < i else x_old[j] for j in range(3)]
            mix[i] = state.x[i]
            b = kron_others(mix, i)
            s_i = unfold(state.s, i)
            lhs = cfg.beta * np.eye(ranks[i]) + cfg.lam * s_i @ b.T @ b @ s_i.T
            # the state keeps the scaled duals t_i = T_i/beta
            rhs = (
                cfg.lam * unfold(state.z, i) @ b @ s_i.T
                + cfg.beta * state.y[i]
                - cfg.beta * state.t[i]
            )
            worst = max(
                worst,
                np.linalg.norm(state.x[i] @ lhs - rhs)
                / max(1.0, np.linalg.norm(rhs)),
            )

        update_z(state, cfg)
        zhat = multilinear(state.s, state.x)
        grad = cfg.lam * (state.z - zhat)
        for i in range(3):
            grad += cfg.beta * state.u[i] + cfg.beta * (state.z - state.w[i])
        off = ~mask.boolean()
        if off.any():
            worst = max(worst, float(np.abs(grad[off]).max()))
        sel = mask.boolean()
        if sel.any():
            worst = max(worst, float(np.abs(state.z[sel] - m[sel]).max()))

        update_w(state, cfg)
        for i in range(3):
            a = smoothing_matrix(cfg, dims, i)
            lhs = cfg.beta * np.eye(dims[i]) + 2.0 * cfg.omega[i] * a.T @ a
            rhs = cfg.beta * unfold(state.z, i) + unfold(cfg.beta * state.u[i], i)
            worst = max(
                worst,
                np.linalg.norm(lhs @ unfold(state.w[i], i) - rhs)
                / max(1.0, np.linalg.norm(rhs)),
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    assert verdict(
        ok,
        "criterion-1",
        f"block optimality residual {worst:.3e} (<=1e-8) over 50 instances "
        f"in {elapsed:.1f}s (<30s)",
    )


def test_criterion_2_lagrangian_monotone_over_primal_blocks():
    """Across 10 seeds and 100 iterations on 8x8x8 problems, no primal block
    update increases the augmented Lagrangian beyond 1e-8 relative slack
    (runtime bound: 60 s)."""
    start = time.perf_counter()
    worst = -np.inf
    for seed in range(10):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((8, 8, 8)) * 10.0
        mask = ObservationMask(rng.random((8, 8, 8)) < 0.6)
        cfg = SolverConfig(
            ranks=(3, 3, 3), beta=0.5, omega=(0.0, 1.0, 0.2)
        )
        state = init_state(m, mask, cfg)

        def primal_blocks():
            # X, S, Y, Z and W in the order of step, pausing after each;
            # the core step takes the factor sweep's products
            chains = update_factors(state, cfg)
            yield
            update_core(state, cfg, *chains)
            yield
            update_y(state, cfg)
            yield
            update_z(state, cfg)
            yield
            update_w(state, cfg)
            yield

        prev = augmented_lagrangian(state, cfg)
        for _ in range(100):
            for _ in primal_blocks():
                cur = augmented_lagrangian(state, cfg)
                worst = max(worst, (cur - prev) / max(1.0, abs(prev)))
                prev = cur
            update_duals(state, cfg)
            prev = augmented_lagrangian(state, cfg)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    assert verdict(
        ok,
        "criterion-2",
        f"max relative Lagrangian increase {worst:.3e} (<=1e-8) over "
        f"10 seeds x 100 iterations in {elapsed:.1f}s (<60s)",
    )


def test_criterion_3_observed_entries_exact_every_iteration():
    """The iterate always interpolates the data on the observed set, to the
    last bit, at every iteration of a full solve."""
    rng = np.random.default_rng(77)
    m = rng.standard_normal((10, 9, 8)) * 5.0
    mask = ObservationMask(rng.random((10, 9, 8)) < 0.5)
    sel = mask.boolean()
    worst = []

    def cb(state):
        worst.append(float(np.abs(state.z[sel] - m[sel]).max()))

    cfg = SolverConfig(
        ranks=(3, 3, 3), sigma=0.0, lam=1.0, max_iter=30, tol=1e-300
    )
    solve(m, mask, cfg, callback=cb)
    ok = len(worst) == 30 and max(worst) == 0.0
    assert verdict(
        ok,
        "criterion-3",
        f"max observed-set deviation {max(worst):.1e} (must be 0) over "
        f"{len(worst)} iterations",
    )


def test_criterion_4_synthetic_recovery():
    """Frozen low-rank sparse-core instance (truth seed 4, mask seed 104,
    60% observed) recovers to RSE < 0.05; regression band pins the recorded
    RSE 0.0134 to within 20% (runtime bound: 120 s)."""
    start = time.perf_counter()
    truth, _, _ = synthetic_tucker(seed=4)
    mask = random_mask(truth.shape, 0.6, seed=104)
    cfg = preset_config("image", ranks=(2, 2, 2), beta=1.0)
    report = solve(truth, mask, cfg)
    err = rse(truth, report.recovered)
    elapsed = time.perf_counter() - start
    ok = err < 0.05 and 0.0134 * 0.8 <= err <= 0.0134 * 1.2 and elapsed < 120.0
    assert verdict(
        ok,
        "criterion-4",
        f"RSE {err:.4f} (<0.05, band 0.0107..0.0161) in {report.iterations} "
        f"iterations, {elapsed:.1f}s (<120s)",
    )


def test_criterion_5_proximal_operators_are_minimizers():
    """On 20 random instances, 200 random perturbations per instance never
    beat the closed-form prox values of either shrinkage operator."""
    rng = np.random.default_rng(5150)
    violations = 0
    for _ in range(20):
        g = rng.standard_normal((5, 4))
        tau = float(rng.uniform(0.05, 2.0))

        y = svd_shrink(g, tau)
        base = tau * np.linalg.svd(y, compute_uv=False).sum() + (
            0.5 * np.linalg.norm(y - g) ** 2
        )
        s = soft_shrink(g, tau)
        base_s = tau * np.abs(s).sum() + 0.5 * np.linalg.norm(s - g) ** 2
        for _ in range(200):
            d = rng.standard_normal(g.shape)
            d *= rng.uniform(1e-4, 1e-1) / np.linalg.norm(d)
            cand = y + d
            val = tau * np.linalg.svd(cand, compute_uv=False).sum() + (
                0.5 * np.linalg.norm(cand - g) ** 2
            )
            if val < base - 1e-12:
                violations += 1
            cand = s + d
            val = tau * np.abs(cand).sum() + 0.5 * np.linalg.norm(cand - g) ** 2
            if val < base_s - 1e-12:
                violations += 1
    ok = violations == 0
    assert verdict(
        ok,
        "criterion-5",
        f"{violations} prox optimality violations over 20 instances x 200 "
        "perturbations x 2 operators (must be 0)",
    )


def test_criterion_6_smoothing_recovers_whole_missing_slices():
    """With an entire mode-2 slice missing plus 20% random erasures, the
    smoothing-regularized preset beats the same solver without smoothing on
    the dropped slice in at least 4 of 5 seeds (runtime bound: 300 s)."""
    start = time.perf_counter()
    wins = 0
    pairs = []
    for seed in range(5):
        truth, _, _ = synthetic_tucker(seed=seed)
        spec = MissingSpec(
            kind="composite",
            mode=2,
            params={
                "structural": {"kind": "whole_slices", "mode": 2,
                               "params": {"slices": [10]}},
                "ratio": 0.8,
            },
            seed=200 + seed,
        )
        mask = structured_mask(truth.shape, spec)
        slice_mask = ObservationMask(
            ~np.isin(np.arange(truth.shape[2]), [10])[None, None, :]
            * np.ones(truth.shape, dtype=bool)
        )
        smooth_cfg = preset_config(
            "traffic-wholeday", ranks=(2, 2, 2), beta=1.0
        )
        plain_cfg = preset_config(
            "traffic-wholeday", ranks=(2, 2, 2), beta=1.0,
            omega=(0.0, 0.0, 0.0),
        )
        rec_smooth = solve(truth, mask, smooth_cfg).recovered
        rec_plain = solve(truth, mask, plain_cfg).recovered
        e_smooth = nmae(truth, rec_smooth, slice_mask)
        e_plain = nmae(truth, rec_plain, slice_mask)
        pairs.append((e_smooth, e_plain))
        wins += e_smooth < e_plain
    elapsed = time.perf_counter() - start
    ok = wins >= 4 and elapsed < 300.0
    detail = ", ".join(f"{a:.3f}vs{b:.3f}" for a, b in pairs)
    assert verdict(
        ok,
        "criterion-6",
        f"smoothing wins {wins}/5 dropped-slice NMAE duels (need >=4) "
        f"[{detail}] in {elapsed:.1f}s (<300s)",
    )


def test_criterion_7_core_truncation_tradeoff():
    """HOSVD core truncation on a unit-scaled image: sparsity nondecreasing
    and SNR nonincreasing along the threshold grid, with sparsity above 0.5
    at threshold 0.1."""
    img = synthetic_image(128, 128, seed=0) / 255.0
    model = hosvd(img, img.shape)
    grid = (0.0, 0.01, 0.05, 0.1)
    sparsities, snrs = [], []
    for tn in grid:
        trunc, sparsity = truncate_core(model, tn)
        sparsities.append(sparsity)
        snrs.append(reconstruction_snr(img, trunc.reconstruct()))
    ok = (
        sparsities == sorted(sparsities)
        and snrs == sorted(snrs, reverse=True)
        and sparsities[-1] > 0.5
    )
    assert verdict(
        ok,
        "criterion-7",
        f"sparsity {['%.3f' % s for s in sparsities]} nondecreasing, "
        f"SNR {['%.1f' % s for s in snrs]} dB nonincreasing, "
        f"final sparsity > 0.5",
    )


def test_criterion_8_image_completion_quality():
    """Completing a synthetic 256x256x3 natural-statistics image from 40%
    of its pixels reaches PSNR >= 25 dB with the image preset (runtime
    bound: 300 s). A generated stand-in replaces the usual photographic
    benchmark because external datasets are out of scope here."""
    start = time.perf_counter()
    img = synthetic_image(256, 256, seed=0)
    mask = random_mask(img.shape, 0.4, seed=11)
    cfg = preset_config("image", ranks=(64, 64, 3), beta=0.1)
    report = solve(np.where(mask.boolean(), img, 0.0), mask, cfg)
    quality = psnr(img, report.recovered, mask, max_value=255.0)
    elapsed = time.perf_counter() - start
    ok = quality >= 25.0 and elapsed < 300.0
    assert verdict(
        ok,
        "criterion-8",
        f"PSNR {quality:.2f} dB (>=25) in {report.iterations} iterations, "
        f"{elapsed:.1f}s (<300s)",
    )


def test_criterion_9_deterministic_cli_reports(tmp_path):
    """Two identical CLI runs with --deterministic-report produce
    byte-identical recovered tensors and reports."""
    truth, _, _ = synthetic_tucker(seed=2, dims=(10, 10, 10))
    mask = random_mask(truth.shape, 0.7, seed=9)
    tensor_path = tmp_path / "t.lrt"
    mask_path = tmp_path / "m.lrm"
    write_tensor(tensor_path, truth)
    write_mask(mask_path, mask)
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"rec_{tag}.lrt"
        rep = tmp_path / f"rep_{tag}.json"
        code = main(
            [
                "complete",
                "--input", str(tensor_path),
                "--mask", str(mask_path),
                "--preset", "image",
                "--ranks", "3,3,3",
                "--beta", "1.0",
                "--max-iter", "20",
                "--out", str(out),
                "--report", str(rep),
                "--deterministic-report",
            ]
        )
        outputs.append((code, out.read_bytes(), rep.read_bytes()))
    codes_ok = outputs[0][0] == 0 and outputs[1][0] == 0
    same = outputs[0][1:] == outputs[1][1:]
    report_doc = json.loads(outputs[0][2])
    timings_zeroed = report_doc["timings"]["total_seconds"] == 0.0
    ok = codes_ok and same and timings_zeroed
    assert verdict(
        ok,
        "criterion-9",
        "repeated runs byte-identical (tensor and report) with wall-clock "
        "fields zeroed",
    )
