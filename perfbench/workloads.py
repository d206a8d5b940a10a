"""The four frozen benchmark workloads.

Each workload has three phases:

* ``prepare`` generates the inputs from the seed and writes them to files
  with the benchmark's own writers (never timed);
* ``setup`` reads those files back through ``lrsetd.io`` and builds the
  observation mask through ``lrsetd.masks`` (timed as ``setup_s``);
* ``run`` is one unit of the timed phase: one solve, a batch of solves, or
  one truncation sweep. It times every ADMM iteration or sweep point and,
  when given a ``HostProbe``, runs the probe between them, outside the
  timed steps.

``check`` inspects a unit's outcome outside the timed region and returns
the quality figures plus one message per failed solve or sweep point.
Exceptions raised by the library inside ``run`` are caught there and
counted as failures, never raised out of the runner.
"""

import importlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from lrsetd.tensor import ObservationMask, multilinear

# Library calls go through module attributes so that the tracer's swapped
# functions are the ones called. (``lrsetd.hosvd`` the attribute is the
# function of that name, hence import_module.)
lhosvd = importlib.import_module("lrsetd.hosvd")
lio = importlib.import_module("lrsetd.io")
lmasks = importlib.import_module("lrsetd.masks")
lsolver = importlib.import_module("lrsetd.solver")

# Sizes for the real workloads and for the self-test. Everything else about
# a workload (recipe, preset, mask kind) is the same at both sizes.
SIZES = {
    "full": {
        "image-256": dict(side=256, ranks=(64, 64, 3)),
        "traffic-wholeday": dict(pairs=121, intervals=288, days=7, dropped_day=3),
        "synth-batch": dict(instances=40, side=20),
        "hosvd-sweep": dict(side=512, thresholds=32),
    },
    "tiny": {
        "image-256": dict(side=48, ranks=(12, 12, 3)),
        "traffic-wholeday": dict(pairs=9, intervals=24, days=7, dropped_day=3),
        "synth-batch": dict(instances=5, side=20),
        "hosvd-sweep": dict(side=32, thresholds=4),
    },
}

# The image content and the traffic OD pairs come from this fixed seed, so
# that quality varies little between benchmark seeds; the seed draws the
# noise, the masks and the synthetic instances.
CONTENT_SEED = 0
IMAGE_RATIO = 0.4
IMAGE_MIN_PSNR_DB = 25.0  # acceptance criterion 8
SYNTH_RATIO = 0.6
# Acceptance criterion 4 holds one frozen instance to RSE < 0.05; over many
# seeds the median of 40 instances sits near 0.06, so the batch bar is 0.1.
SYNTH_MAX_MEDIAN_RSE = 0.1
TRAFFIC_RATIO = 0.6
HOSVD_MAX_THRESHOLD = 0.1  # on the [0, 1] scale, as in acceptance criterion 7
PROBE_SIDE = 160
PROBE_PRODUCTS = 4  # about 0.6 ms of BLAS
PROBE_LOOP = 8000  # about 0.8 ms of Python arithmetic
PROBE_INTERVAL = 0.05  # seconds; the probe adds about 3 % to a run


_PROBE_MATRIX = np.random.default_rng(0).standard_normal((PROBE_SIDE, PROBE_SIDE))


def _probe_work():
    for _ in range(PROBE_PRODUCTS):
        _PROBE_MATRIX @ _PROBE_MATRIX
    x = 0
    for i in range(PROBE_LOOP):
        x += i * i % 7
    return x


class HostProbe:
    """A fixed computation (small matrix products and a Python loop, the two
    kinds of work the library's steps are made of), timed at most every
    PROBE_INTERVAL seconds between the timed steps of a run.

    The shared host's speed changes by 25-40 % for tens of seconds at a
    time; such a change moves the probe and the library's steps alike, so
    the ratio of their medians stays put where each alone does not. The
    probe's data is 200 kB, so when the library's steps evict it, reading it
    back costs microseconds of the probe's ~1.5 ms."""

    def __init__(self):
        self.seconds = []
        self._last = -math.inf

    def maybe_run(self):
        t0 = time.perf_counter()
        if t0 - self._last >= PROBE_INTERVAL:
            _probe_work()
            self._last = time.perf_counter()
            self.seconds.append(self._last - t0)


@dataclass
class Outcome:
    """What one timed unit produced; filled inside ``run``."""

    probe: HostProbe = None  # run between the timed steps when given
    results: list = field(default_factory=list)  # one entry per attempt
    errors: list = field(default_factory=list)  # (attempt index, message)
    iterations: int = 0
    step_seconds: list = field(default_factory=list)  # per ADMM iteration or sweep point

    def between_steps(self):
        if self.probe is not None:
            self.probe.maybe_run()

    def solve(self, k, m, mask, cfg):
        """Solve and record the time between consecutive iterations (the
        first, which includes init_state, is left out; so is the probe,
        run inside the callback). Any exception is recorded as a failure of
        attempt `k`; returns the report or None."""
        stamps = []  # (callback entered, callback left)

        def callback(state):
            entered = time.perf_counter()
            self.between_steps()
            stamps.append((entered, time.perf_counter()))

        try:
            report = lsolver.solve(m, mask, cfg, callback=callback)
        except Exception as e:  # counted as a failed solve
            self.errors.append((k, f"{type(e).__name__}: {e}"))
            return None
        self.iterations += report.iterations
        self.step_seconds += [b[0] - a[1] for a, b in zip(stamps, stamps[1:])]
        return report


@dataclass
class Quality:
    rse: float
    psnr_db: float
    failures: list  # (attempt index, message); index None = whole unit


# ---------------------------------------------------------------- generators


def natural_image(side, seed):
    """Natural-statistics test image in [0, 255]: smooth waves plus Gaussian
    blobs and mild texture (the acceptance criterion 8 recipe). The blob
    layout is frozen; `seed` draws the texture."""
    rng = np.random.default_rng(CONTENT_SEED)
    y, x = np.meshgrid(
        np.linspace(0, 1, side), np.linspace(0, 1, side), indexing="ij"
    )
    img = np.zeros((side, side, 3))
    for c in range(3):
        img[:, :, c] = 120 + 100 * np.sin(
            2 * np.pi * (1.5 * x + 0.7 * c)
        ) * np.cos(2 * np.pi * (1.1 * y - 0.3 * c))
        for _ in range(6):
            cx, cy = rng.uniform(0, 1, 2)
            amp = rng.uniform(-60, 60)
            s = rng.uniform(0.05, 0.2)
            img[:, :, c] += amp * np.exp(
                -((x - cx) ** 2 + (y - cy) ** 2) / (2 * s * s)
            )
    img += np.random.default_rng(seed).standard_normal((side, side, 3)) * 2.0
    return np.clip(img, 0, 255)


def traffic_tensor(pairs, intervals, days, seed):
    """OD-pair x 5-min interval x day volumes: two daily peaks whose mix
    varies per pair, log-normal pair volumes, weekend damping and
    multiplicative noise. The pairs are frozen; `seed` draws the noise."""
    rng = np.random.default_rng(CONTENT_SEED)
    hours = np.arange(intervals) * (24.0 / intervals)
    morning = np.exp(-0.5 * ((hours - 8.0) / 1.2) ** 2)
    evening = np.exp(-0.5 * ((hours - 17.5) / 1.6) ** 2)
    mix = rng.uniform(0.3, 1.0, size=(pairs, 1))
    profile = 0.15 + mix * morning + (1.0 - mix) * evening  # pairs x T
    volume = rng.lognormal(mean=3.0, sigma=1.0, size=(pairs, 1, 1))
    day_scale = np.where(np.arange(days) % 7 >= 5, 0.55, 1.0)
    base = volume * profile[:, :, None] * day_scale[None, None, :]
    return base * np.random.default_rng(seed).lognormal(0.0, 0.1, size=base.shape)


def smooth_orthonormal_factors(dims, ranks):
    """Orthonormal factors from boundary-decaying polynomial columns."""
    factors = []
    for d, r in zip(dims, ranks):
        t = np.linspace(0.0, 1.0, d)
        base = np.column_stack([(1.0 - t) ** (j + 1) for j in range(r)])
        q, _ = np.linalg.qr(base)
        factors.append(q)
    return factors


def synthetic_tucker(seed, dims, ranks=(2, 2, 2), density=0.1, scale=2000.0):
    """Tucker tensor with smooth orthonormal factors and a sparse core (the
    acceptance criterion 4 recipe)."""
    rng = np.random.default_rng(seed)
    factors = smooth_orthonormal_factors(dims, ranks)
    core = np.zeros(ranks)
    k = max(1, int(round(density * core.size)))
    vals = (1.0 + np.abs(rng.standard_normal(k))) * scale
    vals *= np.sign(rng.standard_normal(k))
    core.ravel()[rng.permutation(core.size)[:k]] = vals
    return multilinear(core, factors)


# ------------------------------------------------------------------- writers
# The benchmark writes its inputs itself so that a defect in an lrsetd
# writer cannot hide the same defect in the matching reader.


def write_ppm(path, pixels):
    height, width, _ = pixels.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (width, height))
        f.write(pixels.astype(np.uint8).tobytes())


def write_lrt1(path, tensor):
    with open(path, "wb") as f:
        f.write(b"LRT1")
        f.write(np.asarray([tensor.ndim], dtype="<u4").tobytes())
        f.write(np.asarray(tensor.shape, dtype="<u4").tobytes())
        f.write(tensor.ravel(order="F").astype("<f8").tobytes())


def write_csv(path, matrix):
    # %.17g round-trips every float64 exactly
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",")


# ------------------------------------------------------------------ helpers


def _solve_checks(m, mask, recovered):
    """Failure messages for one solve: finite result, observed entries
    bitwise equal to the input (acceptance criterion 3)."""
    if not np.all(np.isfinite(recovered)):
        return ["recovered tensor has non-finite entries"]
    sel = mask.boolean()
    if not np.array_equal(recovered[sel], m[sel]):
        return ["observed entries differ from the input"]
    return []


def _median(values):
    return float(np.median(values)) if values else math.nan


# ----------------------------------------------------------------- workloads


class ImageCompletion:
    """Criterion-8 image completion: 40 % of a natural-statistics image."""

    name = "image-256"

    def __init__(self, side, ranks):
        self.side, self.ranks = side, ranks

    def prepare(self, workdir, seed):
        pixels = np.floor(natural_image(self.side, seed) + 0.5).astype(np.uint8)
        path = os.path.join(workdir, "image.ppm")
        write_ppm(path, pixels)
        return dict(path=path, mask_seed=seed + 11, truth=pixels.astype(np.float64))

    def setup(self, prep):
        img = lio.read_image(prep["path"])
        mask = lmasks.random_mask(img.shape, IMAGE_RATIO, seed=prep["mask_seed"])
        return dict(img=img, mask=mask)

    def run(self, data, probe=None):
        out = Outcome(probe)
        mask = data["mask"]
        m = np.where(mask.boolean(), data["img"], 0.0)
        report = out.solve(0, m, mask, lsolver.preset_config("image", ranks=self.ranks, beta=0.1))
        if report is not None:
            out.results.append((m, report.recovered))
        return out

    def check(self, prep, data, out):
        failures = list(out.errors)
        if not np.array_equal(data["img"], prep["truth"]):
            failures.append((None, "read_image does not return the written pixels"))
        if not out.results:
            return Quality(math.nan, math.nan, failures)
        m, rec = out.results[0]
        failures += [(0, msg) for msg in _solve_checks(m, data["mask"], rec)]
        quality = lmasks.psnr(data["img"], rec, data["mask"], max_value=255.0)
        if not quality >= IMAGE_MIN_PSNR_DB:
            failures.append((0, f"PSNR {quality:.2f} dB below {IMAGE_MIN_PSNR_DB}"))
        return Quality(lmasks.rse(data["img"], rec), quality, failures)


class TrafficWholeDay:
    """OD x interval x day traffic with one whole day missing."""

    name = "traffic-wholeday"

    def __init__(self, pairs, intervals, days, dropped_day):
        self.shape = (pairs, intervals, days)
        self.dropped_day = dropped_day

    def prepare(self, workdir, seed):
        pairs, intervals, days = self.shape
        truth = traffic_tensor(pairs, intervals, days, seed)
        # OTD traffic matrix: row = pair, column = day * intervals + interval
        matrix = np.transpose(truth, (0, 2, 1)).reshape(pairs, days * intervals)
        path = os.path.join(workdir, "traffic.csv")
        write_csv(path, matrix)
        spec = lmasks.MissingSpec(
            kind="composite",
            mode=2,
            params={
                "structural": {
                    "kind": "whole_slices",
                    "mode": 2,
                    "params": {"slices": [self.dropped_day]},
                },
                "ratio": TRAFFIC_RATIO,
            },
            seed=seed + 7,
        )
        return dict(path=path, spec=spec, truth=truth)

    def setup(self, prep):
        matrix = lio.read_traffic_csv(prep["path"])
        tensor = lio.tensorize(matrix, ("otd",) + self.shape)
        mask = lmasks.structured_mask(tensor.shape, prep["spec"])
        return dict(tensor=tensor, mask=mask)

    def run(self, data, probe=None):
        out = Outcome(probe)
        mask = data["mask"]
        m = np.where(mask.boolean(), data["tensor"], 0.0)
        report = out.solve(0, m, mask, lsolver.preset_config("traffic-wholeday"))
        if report is not None:
            out.results.append((m, report.recovered))
        return out

    def check(self, prep, data, out):
        failures = list(out.errors)
        truth = data["tensor"]
        if not np.array_equal(truth, prep["truth"]):
            failures.append((None, "read_traffic_csv/tensorize do not return the data"))
        if data["mask"].boolean()[:, :, self.dropped_day].any():
            failures.append((None, "the dropped day has observed entries"))
        if not out.results:
            return Quality(math.nan, math.nan, failures)
        m, rec = out.results[0]
        failures += [(0, msg) for msg in _solve_checks(m, data["mask"], rec)]
        return Quality(
            lmasks.rse(truth, rec), lmasks.psnr(truth, rec, data["mask"]), failures
        )


class SynthBatch:
    """Many tiny criterion-4 instances solved back to back."""

    name = "synth-batch"

    def __init__(self, instances, side):
        self.instances = instances
        self.dims = (side, side, side)

    def prepare(self, workdir, seed):
        paths, truths = [], []
        for k in range(self.instances):
            truth = synthetic_tucker(seed * 1000 + k, self.dims)
            path = os.path.join(workdir, f"synth{k:03d}.lrt")
            write_lrt1(path, truth)
            paths.append(path)
            truths.append(truth)
        return dict(paths=paths, truths=truths, mask_seed=seed * 1000 + 100)

    def setup(self, prep):
        tensors = [lio.read_tensor(p) for p in prep["paths"]]
        masks = [
            lmasks.random_mask(t.shape, SYNTH_RATIO, seed=prep["mask_seed"] + k)
            for k, t in enumerate(tensors)
        ]
        return dict(tensors=tensors, masks=masks)

    def run(self, data, probe=None):
        out = Outcome(probe)
        cfg = lsolver.preset_config("image", ranks=(2, 2, 2), beta=1.0)
        for k, (t, mask) in enumerate(zip(data["tensors"], data["masks"])):
            m = np.where(mask.boolean(), t, 0.0)
            report = out.solve(k, m, mask, cfg)
            if report is not None:
                out.results.append((k, m, report.recovered))
        return out

    def check(self, prep, data, out):
        failures = list(out.errors)
        rses, psnrs = [], []
        for k, m, rec in out.results:
            truth, mask = data["tensors"][k], data["masks"][k]
            if not np.array_equal(truth, prep["truths"][k]):
                failures.append((k, "read_tensor differs from the written tensor"))
            bad = _solve_checks(m, mask, rec)
            failures += [(k, msg) for msg in bad]
            if not bad:
                rses.append(lmasks.rse(truth, rec))
                psnrs.append(
                    lmasks.psnr(truth, rec, mask, max_value=np.abs(truth).max())
                )
        median_rse = _median(rses)
        if not median_rse < SYNTH_MAX_MEDIAN_RSE:
            failures.append(
                (None, f"median RSE {median_rse:.4f} not below {SYNTH_MAX_MEDIAN_RSE}")
            )
        return Quality(median_rse, _median(psnrs), failures)


class HosvdSweep:
    """Full-rank HOSVD, then core truncation at a grid of thresholds, each
    reconstruction written as PPM (the ``hosvd-demo --images-out`` path)."""

    name = "hosvd-sweep"

    def __init__(self, side, thresholds):
        self.side = side
        self.grid = np.linspace(0.0, HOSVD_MAX_THRESHOLD, thresholds)

    def prepare(self, workdir, seed):
        pixels = np.floor(natural_image(self.side, seed) + 0.5).astype(np.uint8)
        path = os.path.join(workdir, "image.ppm")
        write_ppm(path, pixels)
        return dict(path=path, workdir=workdir, truth=pixels.astype(np.float64))

    def setup(self, prep):
        return dict(img=lio.read_image(prep["path"]), outdir=prep["workdir"])

    def run(self, data, probe=None):
        out = Outcome(probe)
        img = data["img"] / 255.0
        try:
            model = lhosvd.hosvd(img, img.shape)
        except Exception as e:
            out.errors.extend((k, f"{type(e).__name__}: {e}") for k in range(len(self.grid)))
            return out
        last = len(self.grid) - 1
        for k, tn in enumerate(self.grid):
            out.between_steps()
            t0 = time.perf_counter()
            try:
                truncated, sparsity = lhosvd.truncate_core(model, tn)
                approx = truncated.reconstruct()
                snr = lhosvd.reconstruction_snr(img, approx)
                path = os.path.join(data["outdir"], f"sweep_tn{k:02d}.ppm")
                lio.write_image(path, approx * 255.0)
            except Exception as e:
                out.errors.append((k, f"{type(e).__name__}: {e}"))
            else:
                # only the largest threshold's reconstruction is kept
                out.results.append((k, sparsity, snr, path, approx if k == last else None))
            out.iterations += 1
            out.step_seconds.append(time.perf_counter() - t0)
        return out

    def check(self, prep, data, out):
        failures = list(out.errors)
        img = data["img"]
        if not np.array_equal(img, prep["truth"]):
            failures.append((None, "read_image does not return the written pixels"))
        h, w, c = img.shape
        expected_bytes = len(b"P6\n%d %d\n255\n" % (w, h)) + h * w * c
        prev = None
        for k, sparsity, snr, path, _ in out.results:
            if os.path.getsize(path) != expected_bytes:
                failures.append((k, "wrong PPM size"))
            if prev is not None and (sparsity < prev[0] or snr > prev[1]):
                failures.append((k, "sparsity fell or SNR rose (criterion 7)"))
            prev = (sparsity, snr)
        if not out.results or out.results[-1][0] != len(self.grid) - 1:
            failures.append((None, "largest threshold did not complete"))
            return Quality(math.nan, math.nan, failures)
        if out.results[0][0] == 0 and not out.results[0][2] > 100.0:
            failures.append((0, "untruncated full-rank HOSVD does not reconstruct"))
        approx = out.results[-1][4]
        unit = img / 255.0
        everything = ObservationMask.empty(unit.shape)
        return Quality(
            lmasks.rse(unit, approx),
            lmasks.psnr(unit, approx, everything, max_value=1.0),
            failures,
        )


WORKLOADS = {
    "image-256": ImageCompletion,
    "traffic-wholeday": TrafficWholeDay,
    "synth-batch": SynthBatch,
    "hosvd-sweep": HosvdSweep,
}


def make(name, size="full"):
    return WORKLOADS[name](**SIZES[size][name])
