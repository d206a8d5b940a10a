"""Command-line runner: complete / hosvd-demo / mask-gen / metrics.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure, 141 (128 + SIGPIPE) when the reader of stdout has quit. The
--report JSON of `complete` echoes the config, holds the per-iteration
trace, one object per `IterationRecord` with the record's fields (the
penalty beta of the iteration, the relative change, the primal and dual
residuals, the Y ranks and the core density), and gives the augmented
Lagrangian and the model objective at the final iterate as top-level
`lagrangian` and `objective`. A
`complete` whose final core is all zero (termination "collapsed") exits 0,
with one `warning:` line on stderr naming sigma, lam and the observed RMS
when some entry is off the mask.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import io as tio
from .hosvd import _check_threshold, hosvd, reconstruction_snr, truncate_core
from .masks import MissingSpec, nmae, psnr, random_mask, rse, structured_mask
from .solver import (
    PRESETS,
    NumericalError,
    SolverConfig,
    preset_config,
    solve,
)
from .tensor import frobenius

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4
EXIT_BROKEN_PIPE = 141  # what a shell reports for `yes` once its reader quits


def _parse_list(text, name, kind=int):
    """Comma-separated values of type `kind`; an empty field is an error,
    not a value to skip, since a count of modes may set the order."""
    parts = text.replace(" ", "").split(",")
    if not all(parts):
        raise ValueError(f"{name} has an empty field: {text!r}")
    return tuple(kind(p) for p in parts)


def _load_input(path, fmt, tensorize_arg):
    fmt = fmt or _guess_format(path)
    if fmt == "lrt":
        data = tio.read_tensor(path)
    elif fmt in ("ppm", "pgm"):
        data = tio.read_image(path)
    elif fmt == "csv":
        matrix = tio.read_traffic_csv(path)
        if tensorize_arg is None:
            raise ValueError("csv input requires --tensorize")
        data = tio.tensorize(matrix, _parse_tensorize(tensorize_arg))
    else:
        raise ValueError(f"unknown input format {fmt!r}")
    return data


def _guess_format(path):
    suffix = Path(path).suffix.lower().lstrip(".")
    if suffix in ("lrt", "ppm", "pgm", "csv"):
        return suffix
    raise ValueError(f"cannot infer format of {path!r}; pass --format")


def _parse_tensorize(text):
    kind, _, dims = text.partition(":")
    kind = kind.strip().lower()
    if kind not in ("otd", "oot") or not dims:
        raise ValueError(
            f"--tensorize must look like 'otd:121,288,7', got {text!r}"
        )
    return (kind, *_parse_list(dims, "--tensorize dims"))


def _build_mask(args, dims):
    given = [
        v
        for v in (args.mask, args.missing_spec, args.sample_ratio)
        if v is not None
    ]
    if len(given) != 1:
        raise ValueError(
            "exactly one of --mask, --missing-spec, --sample-ratio required"
        )
    if args.mask is not None:
        if args.seed is not None:
            raise ValueError(
                "--seed seeds a generated mask (--sample-ratio or "
                "--missing-spec) only, not a --mask file"
            )
        mask = tio.read_mask(args.mask)
        if mask.dims != tuple(dims):
            raise ValueError(
                f"mask dims {mask.dims} do not match data dims {tuple(dims)}"
            )
        return mask
    return _generate_mask(
        dims, args.missing_spec, args.sample_ratio, args.seed
    )


def _inline_json(arg):
    """Whether a `--missing-spec` value is inline JSON: it parses as JSON
    and names no file. So ``null`` or ``[1]`` is rejected as a spec that
    is not an object, and not looked up as a missing file."""
    try:
        json.loads(arg)
    except json.JSONDecodeError:
        return False
    return not os.path.isfile(arg)


def _generate_mask(dims, spec_arg, ratio, seed):
    """Mask from a `--missing-spec` (inline JSON or a path) when given, else
    a uniform draw at `ratio`; a `--seed` overrides the spec's seed."""
    if spec_arg is None:
        return random_mask(dims, ratio, seed=seed or 0)
    text = spec_arg
    if not spec_arg.lstrip().startswith("{") and not _inline_json(spec_arg):
        text = Path(spec_arg).read_text(encoding="utf-8")
    spec = MissingSpec.from_json(text)
    if seed is not None:
        spec = MissingSpec(
            kind=spec.kind, mode=spec.mode, params=spec.params, seed=seed
        )
    return structured_mask(dims, spec)


def _solver_config(args):
    """Assemble the solver configuration: flags > config file > preset >
    defaults. The preset comes from --preset or else the file's "preset"
    key. Returns the config and the name of the preset applied, or None."""
    fields = {}
    if args.config:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
        known = {"preset", *SolverConfig.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for key in ("ranks", "alpha", "omega"):
            if isinstance(doc.get(key), list):
                doc[key] = tuple(doc[key])
        fields.update(doc)
    for key in ("preset", "tol", "max_iter", "beta"):
        value = getattr(args, key)
        if value is not None:
            fields[key] = value
    # only the flag is a comma string; a config file's ranks is a list
    if args.ranks is not None:
        fields["ranks"] = _parse_list(args.ranks, "--ranks")
    preset = fields.pop("preset", None)
    if preset is None:
        return SolverConfig(**fields), None
    return preset_config(preset, **fields), preset


def _write_report(path, doc):
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def cmd_complete(args):
    truth = _load_input(args.input, args.format, args.tensorize)
    mask = _build_mask(args, truth.shape)
    cfg, preset = _solver_config(args)
    # solve reads only the observed entries of its input, so no copy
    report = solve(truth, mask, cfg)
    # with a full mask no entry comes from the smoothed zero fill
    if report.termination == "collapsed" and mask.n_missing:
        observed = np.take(truth, mask.c_flat_index())
        rms = frobenius(observed) / math.sqrt(max(observed.size, 1))
        print(
            f"warning: the core collapsed to zero (sigma={cfg.sigma:g}, "
            f"lam={cfg.lam:g}, observed RMS {rms:.6g}), so the entries off "
            "the mask are the smoothed zero fill; a smaller sigma or a "
            "larger lam keeps the core",
            file=sys.stderr,
        )

    metrics = {}
    if mask.n_missing and not args.skip_metrics:
        metrics["rse"] = _metric(rse, truth, report.recovered)
        metrics["nmae"] = _metric(nmae, truth, report.recovered, mask)
        metrics["psnr"] = _metric(psnr, truth, report.recovered, mask)

    if args.out:
        if Path(args.out).suffix.lower() in (".ppm", ".pgm"):
            tio.write_image(args.out, report.recovered)
        else:
            tio.write_tensor(args.out, report.recovered)
    if args.report:
        deterministic = args.deterministic_report
        doc = {
            # the config's fields plus the preset applied, so the echo used
            # as a --config file reproduces the run
            "config": {**asdict(cfg), "preset": preset},
            "dims": list(truth.shape),
            "observed": mask.n_observed,
            "metrics": metrics,
            "iterations": report.iterations,
            "termination": report.termination,
            "lagrangian": report.lagrangian,
            "objective": report.objective,
            "trace": [
                asdict(replace(r, seconds=0.0) if deterministic else r)
                for r in report.trace
            ],
            "timings": {
                "total_seconds": 0.0 if deterministic else report.total_seconds
            },
        }
        _write_report(args.report, doc)
    summary = {"iterations": report.iterations, "termination": report.termination}
    summary.update(metrics)
    print(json.dumps(summary, sort_keys=True, allow_nan=False))
    return EXIT_OK


def _metric(fn, *args, **kwargs):
    """`fn(*args, **kwargs)`, or None when the metric is undefined for the
    input or not finite (for example, a truth that holds NaN off the mask)."""
    try:
        value = fn(*args, **kwargs)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def cmd_hosvd_demo(args):
    data = _load_input(args.input, args.format, None)
    if args.scale:
        data = data / args.scale
    ranks = _parse_list(args.ranks, "--ranks") if args.ranks else data.shape
    # the whole grid is checked before any truncation writes an image
    grid = _parse_list(args.tn_grid, "--tn-grid", float)
    for tn in grid:
        _check_threshold(tn)
    model = hosvd(data, ranks)
    lines = ["tn,sparsity,snr"]
    for tn in grid:
        truncated, sparsity = truncate_core(model, tn)
        approx = truncated.reconstruct()
        snr = reconstruction_snr(data, approx)
        lines.append(f"{tn!r},{sparsity!r},{snr!r}")
        if args.images_out:
            out = Path(f"{args.images_out}_tn{tn:g}.ppm")
            tio.write_image(out, approx * (args.scale or 1.0))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_mask_gen(args):
    dims = _parse_list(args.dims, "--dims")
    if (args.missing_spec is None) == (args.ratio is None):
        raise ValueError("exactly one of --missing-spec, --ratio required")
    mask = _generate_mask(dims, args.missing_spec, args.ratio, args.seed)
    tio.write_mask(args.out, mask)
    print(
        json.dumps(
            {"dims": list(dims), "observed": mask.n_observed},
            sort_keys=True,
        )
    )
    return EXIT_OK


def cmd_metrics(args):
    # a bad peak is a config error, not a PSNR left undefined
    if args.max_value is not None and not 0.0 < args.max_value < math.inf:
        raise ValueError(
            f"--max-value must be positive and finite, got {args.max_value!r}"
        )
    truth = _load_input(args.truth, args.format, None)
    recovered = _load_input(args.recovered, args.format, None)
    mask = tio.read_mask(args.mask)
    if recovered.shape != truth.shape or mask.dims != truth.shape:
        raise ValueError(
            f"truth {truth.shape}, recovered {recovered.shape} and mask "
            f"{mask.dims} must have the same shape"
        )
    doc = {
        "rse": _metric(rse, truth, recovered),
        "nmae": _metric(nmae, truth, recovered, mask),
        "psnr": _metric(
            psnr,
            truth,
            recovered,
            mask,
            max_value=args.max_value,
            full_tensor=args.psnr_full,
        ),
    }
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lrsetd",
        description="Tensor completion via low-rank and sparse enhanced "
        "Tucker decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="run a completion experiment")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("lrt", "ppm", "pgm", "csv"))
    p.add_argument("--tensorize", help="otd:P,T,D or oot:S,D,T for csv input")
    p.add_argument("--mask", help="LRM1 mask file")
    p.add_argument("--missing-spec", help="MissingSpec JSON (path or inline)")
    p.add_argument("--sample-ratio", type=float)
    p.add_argument("--preset", help=f"one of {sorted(PRESETS)}")
    p.add_argument("--config", help="solver config JSON file")
    p.add_argument("--ranks", help="r1,r2,...: one rank per mode")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument(
        "--seed",
        type=int,
        help="seed of the mask drawn by --sample-ratio or --missing-spec "
        "(overrides the spec's seed); not allowed with --mask",
    )
    p.add_argument("--out", help="recovered tensor (.lrt/.ppm/.pgm)")
    p.add_argument("--report", help="JSON report path")
    p.add_argument("--skip-metrics", action="store_true")
    p.add_argument(
        "--deterministic-report",
        action="store_true",
        help="zero wall-clock fields so identical runs byte-match",
    )
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("hosvd-demo", help="core truncation sweep")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("lrt", "ppm", "pgm"))
    p.add_argument(
        "--ranks", help="r1,r2,...: one rank per mode (default: full)"
    )
    p.add_argument("--tn-grid", dest="tn_grid", default="0,0.01,0.05,0.1")
    p.add_argument(
        "--scale",
        type=float,
        default=0.0,
        help="divide input by this before HOSVD (e.g. 255)",
    )
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--images-out", dest="images_out")
    p.set_defaults(func=cmd_hosvd_demo)

    p = sub.add_parser("mask-gen", help="write an observation mask")
    p.add_argument("--dims", required=True, help="I1,I2,...: one per mode")
    p.add_argument("--missing-spec", help="MissingSpec JSON (path or inline)")
    p.add_argument("--ratio", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mask_gen)

    p = sub.add_parser("metrics", help="NMAE/PSNR/RSE between two tensors")
    p.add_argument("--truth", required=True)
    p.add_argument("--recovered", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--format", choices=("lrt", "ppm", "pgm"))
    p.add_argument("--max-value", dest="max_value", type=float)
    p.add_argument("--psnr-full", dest="psnr_full", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # failures are caught by explicit checks and reported below, so
        # numpy's floating-point warnings would only repeat them as noise
        with np.errstate(all="ignore"):
            status = args.func(args)
        # a summary still in the buffer meets a closed pipe here, not at exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader has quit, which is no error of the input; stdout goes
        # to the null device so the flush at interpreter exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (tio.FileFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
