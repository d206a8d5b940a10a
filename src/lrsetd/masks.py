"""Observation-pattern generators and recovery-quality metrics.

Mask generation uses the counter-based Philox generator so that identical
specs and seeds produce identical masks on every platform.
"""

import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .io import MAX_ELEMENTS
from .tensor import ObservationMask, frobenius

__all__ = [
    "MissingSpec",
    "random_mask",
    "structured_mask",
    "nmae",
    "psnr",
    "rse",
]

KINDS = (
    "random",
    "drop_every_kth_slice",
    "time_window",
    "whole_slices",
    "composite",
)


@dataclass(frozen=True)
class MissingSpec:
    """Declarative description of a missing-data scenario.

    kind-specific params:
      random:               ratio (observed fraction)
      drop_every_kth_slice: k, phase
      time_window:          period, start, length  (drop indices t with
                            t % period in [start, start+length))
      whole_slices:         slices (explicit index list)
      composite:            structural (nested spec dict) + ratio retained
                            uniformly on the structurally surviving part
    `mode` names the tensor mode the structure applies to.
    """

    kind: str
    mode: int = 0
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown missing kind {self.kind!r}")

    def to_json(self):
        return json.dumps(
            {
                "kind": self.kind,
                "mode": self.mode,
                "params": self.params,
                "seed": self.seed,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text):
        doc = _object(json.loads(text), "missing spec")
        return cls(
            kind=_required(doc, "kind", "missing spec"),
            mode=_integer(doc.get("mode", 0), "mode"),
            params=dict(_object(doc.get("params", {}), "params")),
            seed=_integer(doc.get("seed", 0), "seed"),
        )


def _required(params, key, what):
    """``params[key]``, or a ValueError that names `what` and the key."""
    if key not in params:
        raise ValueError(f"{what} lacks required key {key!r}")
    return params[key]


# Type checks for spec values, which arrive from JSON: null, booleans,
# strings and fractional numbers are rejected instead of coerced.
def _object(value, what):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def _integer(value, what):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _draw(n, ratio, seed):
    """round(ratio * n) distinct positions in [0, n): the prefix of one
    seeded Philox permutation."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    return _rng(seed).permutation(n)[: int(round(ratio * n))]


def _dims(dims):
    """`dims` as a tuple of ints, checked before any mask is allocated:
    each in [1, 2**32 - 1], the range of an LRM1 header, at most
    ``io.MAX_ELEMENTS`` entries, and the 9 bytes an entry takes to draw
    (an int64 permutation beside the mask) within physical memory."""
    dims = tuple(_integer(d, "each dim") for d in dims)
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # not reported
        memory = math.inf
    limit = min(MAX_ELEMENTS, memory // 9)
    if not all(0 < d < 2**32 for d in dims) or math.prod(dims) > limit:
        raise ValueError(
            f"dims {dims} must each lie in [1, 2**32 - 1], with at most "
            f"{limit} entries in all, as memory and the LRM1 format allow"
        )
    return dims


def random_mask(dims, ratio, seed=0):
    """Uniform random mask observing exactly round(ratio * prod(dims))
    entries, deterministic per seed; `ratio` is a real number in [0, 1]."""
    dims = _dims(dims)
    return ObservationMask.from_fortran_positions(
        dims, _draw(math.prod(dims), _real(ratio, "ratio"), seed)
    )


def _structural_drop(dims, spec):
    """Boolean array, True where the structural pattern keeps the entry."""
    mode = _integer(spec.mode, "mode")
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} out of range for dims {dims}")
    size = dims[mode]
    sl = [slice(None)] * len(dims)
    if spec.kind == "drop_every_kth_slice":
        k = _integer(_required(spec.params, "k", f"{spec.kind} spec"), "k")
        phase = _integer(spec.params.get("phase", 0), "phase")
        if k < 1 or not 0 <= phase < k:
            raise ValueError(f"invalid k={k}, phase={phase}")
        sl[mode] = slice(phase, size, k)
    elif spec.kind == "time_window":
        period, start, length = (
            _integer(_required(spec.params, key, f"{spec.kind} spec"), key)
            for key in ("period", "start", "length")
        )
        if period < 1 or length < 0 or not 0 <= start < period:
            raise ValueError(
                f"invalid window period={period}, start={start}, "
                f"length={length}"
            )
        t = np.arange(size)
        dropped = (t % period >= start) & (t % period < start + length)
        sl[mode] = dropped
    elif spec.kind == "whole_slices":
        slices = spec.params.get("slices", [])
        if not isinstance(slices, (list, tuple)):
            raise ValueError(f"slices must be a list, got {slices!r}")
        slices = [_integer(s, "slice index") for s in slices]
        if any(not 0 <= s < size for s in slices):
            raise ValueError(f"slice index out of range for mode size {size}")
        sl[mode] = slices
    else:
        raise ValueError(f"not a structural kind: {spec.kind!r}")
    keep = np.ones(dims, dtype=bool)
    keep[tuple(sl)] = False
    return keep


def structured_mask(dims, spec):
    """Mask for a :class:`MissingSpec`, deterministic per seed.

    For composite kinds the structural pattern drops its slices entirely and
    the surviving entries are retained uniformly at the given ratio.
    """
    if spec.kind == "random":
        ratio = _real(_required(spec.params, "ratio", "random spec"), "ratio")
        return random_mask(dims, ratio, spec.seed)
    dims = _dims(dims)
    if spec.kind == "composite":
        structural = _object(
            _required(spec.params, "structural", "composite spec"), "structural"
        )
        inner = MissingSpec(
            kind=_required(structural, "kind", "composite structural spec"),
            mode=structural.get("mode", spec.mode),
            params=dict(_object(structural.get("params", {}), "params")),
            seed=spec.seed,
        )
        keep = _structural_drop(dims, inner)
        ratio = _real(_required(spec.params, "ratio", "composite spec"), "ratio")
        # uniform retention on the structurally surviving part only
        flat_keep = np.flatnonzero(keep.ravel(order="F"))
        chosen = flat_keep[_draw(flat_keep.size, ratio, spec.seed)]
        return ObservationMask.from_fortran_positions(dims, chosen)
    return ObservationMask(_structural_drop(dims, spec))


def _check(truth, recovered, mask):
    """Raise ValueError unless `truth` and `recovered` have the mask's shape
    and the mask leaves some entry unobserved."""
    if np.shape(truth) != np.shape(recovered) or np.shape(truth) != mask.dims:
        raise ValueError(
            f"shape mismatch: truth {np.shape(truth)}, recovered "
            f"{np.shape(recovered)}, mask {mask.dims}"
        )
    if not mask.n_missing:
        raise ValueError("metric undefined: mask has an empty complement")


def nmae(truth, recovered, mask):
    """Normalized mean absolute error over the unobserved entries.

    Both sums run over the whole tensor with the observed entries set to
    zero, so no complement is gathered."""
    _check(truth, recovered, mask)
    index = mask.c_flat_index()
    # both in C order, so the flat views below index them without a copy
    t = np.array(truth, dtype=np.float64, order="C")  # zeroed below
    err = np.subtract(recovered, t, dtype=np.float64, order="C")
    t.reshape(-1)[index] = 0.0
    err.reshape(-1)[index] = 0.0
    denom = np.abs(t, out=t).sum()
    if denom == 0.0:
        raise ValueError("NMAE undefined: truth vanishes off the mask")
    return float(np.abs(err, out=err).sum() / denom)


def psnr(truth, recovered, mask, max_value=None, full_tensor=False):
    """Peak signal-to-noise ratio in dB.

    By default the squared error is averaged over the unobserved entries
    only; ``full_tensor=True`` switches to the whole-tensor error divided by
    the complement size, for cross-checking against published figures.
    `max_value` defaults to the maximum entry of `truth`. The figure is a
    sum of logarithms, so no square is formed and any finite scale works.
    The error is taken over the whole tensor with the observed entries set
    to zero, so no complement is gathered.
    """
    _check(truth, recovered, mask)
    peak = float(np.max(truth) if max_value is None else max_value)
    if peak <= 0.0:
        raise ValueError(f"peak value must be positive, got {peak}")
    # in C order, so the flat view below and the norm copy nothing
    diff = np.subtract(recovered, truth, dtype=np.float64, order="C")
    if not full_tensor:
        diff.reshape(-1)[mask.c_flat_index()] = 0.0
    err = frobenius(diff)
    if err == 0.0:
        return math.inf
    n = mask.n_missing
    return 20 * math.log10(peak) + 10 * math.log10(n) - 20 * math.log10(err)


def rse(truth, recovered):
    """Relative squared error: ||recovered - truth||_F / ||truth||_F."""
    truth = np.asarray(truth, dtype=np.float64)
    recovered = np.asarray(recovered, dtype=np.float64)
    if truth.shape != recovered.shape:
        raise ValueError(
            f"shape mismatch: {truth.shape} vs {recovered.shape}"
        )
    denom = frobenius(truth)
    if denom == 0.0:
        raise ValueError("RSE undefined for an all-zero truth tensor")
    return frobenius(recovered - truth) / denom
