import copy
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lrsetd
from lrsetd.cli import main
from lrsetd.io import read_mask, read_tensor, write_mask, write_tensor
from lrsetd.masks import random_mask
from lrsetd.solver import IterationRecord, SolverConfig, preset_config, solve
from lrsetd.tensor import frobenius

from conftest import synthetic_tucker


@pytest.fixture
def problem(tmp_path):
    truth, _, _ = synthetic_tucker(seed=1, dims=(8, 8, 8))
    mask = random_mask(truth.shape, 0.7, seed=5)
    tensor_path = tmp_path / "truth.lrt"
    mask_path = tmp_path / "mask.lrm"
    write_tensor(tensor_path, truth)
    write_mask(mask_path, mask)
    return truth, mask, tensor_path, mask_path


class TestCompleteCommand:
    def test_pipeline_matches_library(self, problem, tmp_path, capsys):
        truth, mask, tensor_path, mask_path = problem
        out_path = tmp_path / "rec.lrt"
        code = main(
            [
                "complete",
                "--input", str(tensor_path),
                "--mask", str(mask_path),
                "--ranks", "2,2,2",
                "--max-iter", "15",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        cfg = SolverConfig(ranks=(2, 2, 2), max_iter=15)
        observed = np.where(mask.boolean(), truth, 0.0)
        expected = solve(observed, mask, cfg).recovered
        got = read_tensor(out_path)
        assert frobenius(got - expected) <= 1e-12 * max(1.0, frobenius(expected))
        summary = json.loads(capsys.readouterr().out)
        assert {"iterations", "termination", "rse", "nmae", "psnr"} <= set(summary)

    def test_values_off_the_mask_are_never_read(self, problem, tmp_path):
        # the input goes to the solver as it is, with no zero-filled copy
        truth, mask, tensor_path, mask_path = problem
        outs = []
        for fill in (np.nan, 0.0):
            write_tensor(tensor_path, np.where(mask.boolean(), truth, fill))
            out_path = tmp_path / f"rec_{fill}.lrt"
            code = main(["complete", "--input", str(tensor_path),
                         "--mask", str(mask_path), "--ranks", "2,2,2",
                         "--max-iter", "5", "--out", str(out_path)])
            assert code == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]

    def test_preset_and_flag_precedence(self, problem, tmp_path):
        _, _, tensor_path, mask_path = problem
        report_path = tmp_path / "rep.json"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"beta": 0.3, "max_iter": 2}))
        code = main(
            [
                "complete",
                "--input", str(tensor_path),
                "--mask", str(mask_path),
                "--preset", "traffic-random",
                "--config", str(cfg_path),
                "--beta", "0.9",
                "--ranks", "2,2,2",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        # flag beats config file beats preset defaults
        assert doc["config"]["beta"] == 0.9
        assert doc["config"]["max_iter"] == 2
        assert doc["config"]["omega"] == [0.0, 1.0, 2e-3]
        assert doc["config"]["preset"] == "traffic-random"

    def test_config_file_preset_is_applied(self, problem, tmp_path):
        _, _, tensor_path, mask_path = problem
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preset": "image", "max_iter": 2}))
        base = [
            "complete",
            "--input", str(tensor_path),
            "--mask", str(mask_path),
            "--config", str(cfg_path),
            "--ranks", "2,2,2",
        ]
        rep_file, rep_flag = tmp_path / "file.json", tmp_path / "flag.json"
        assert main(base + ["--report", str(rep_file)]) == 0
        assert main(
            base + ["--preset", "traffic-wholeday", "--report", str(rep_flag)]
        ) == 0
        from_file = json.loads(rep_file.read_text())["config"]
        assert from_file["preset"] == "image"
        assert from_file["omega"] == [1.0, 1.0, 0.0]
        assert from_file["max_iter"] == 2
        # the --preset flag beats the file's preset key
        from_flag = json.loads(rep_flag.read_text())["config"]
        assert from_flag["preset"] == "traffic-wholeday"
        assert from_flag["omega"] == [0.0, 1.0, 1.0]
        assert from_flag["max_iter"] == 2

    def test_sample_ratio_and_trace(self, problem, tmp_path):
        _, _, tensor_path, _ = problem
        report = tmp_path / "report.json"
        code = main(
            [
                "complete",
                "--input", str(tensor_path),
                "--sample-ratio", "0.5",
                "--seed", "3",
                "--ranks", "2,2,2",
                "--max-iter", "3",
                "--tol", "1e-300",
                "--report", str(report),
            ]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        trace = doc["trace"]
        assert len(trace) == 3
        # one trace object per IterationRecord, with its fields
        names = {f.name for f in fields(IterationRecord)}
        assert all(set(row) == names for row in trace)
        assert [row["iteration"] for row in trace] == [1, 2, 3]
        assert all(len(row["y_ranks"]) == 3 for row in trace)
        # the final Lagrangian and objective, once, beside the trace
        assert all(math.isfinite(doc[key]) for key in ("lagrangian", "objective"))

    def test_missing_spec_inline(self, problem, tmp_path, capsys):
        _, _, tensor_path, _ = problem
        spec = json.dumps(
            {
                "kind": "composite",
                "mode": 2,
                "params": {
                    "structural": {"kind": "whole_slices", "mode": 2,
                                   "params": {"slices": [1]}},
                    "ratio": 0.8,
                },
                "seed": 4,
            }
        )
        code = main(
            [
                "complete",
                "--input", str(tensor_path),
                "--missing-spec", spec,
                "--ranks", "2,2,2",
                "--max-iter", "2",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["iterations"] == 2

    @pytest.mark.parametrize("spec", ["null", "2", "[1]"])
    def test_inline_spec_that_is_not_an_object(
        self, spec, problem, tmp_path, capsys, monkeypatch
    ):
        # inline JSON that is not an object is a bad spec (exit 2), not a
        # missing file (exit 3); a file of that name is still read
        _, _, tensor_path, _ = problem
        monkeypatch.chdir(tmp_path)
        argv = ["complete", "--input", str(tensor_path), "--missing-spec", spec,
                "--ranks", "2,2,2", "--max-iter", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: missing spec must be a JSON object, got {json.loads(spec)!r}"
        ]
        (tmp_path / spec).write_text('{"kind": "random", "params": {"ratio": 0.5}}')
        assert main(argv) == 0

    def test_deterministic_reports_byte_identical(self, problem, tmp_path):
        _, _, tensor_path, mask_path = problem
        args = [
            "complete",
            "--input", str(tensor_path),
            "--mask", str(mask_path),
            "--ranks", "2,2,2",
            "--max-iter", "5",
            "--deterministic-report",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--report", str(a)]) == 0
        assert main(args + ["--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mask_source_exclusivity(self, problem):
        _, _, tensor_path, mask_path = problem
        code = main(
            [
                "complete",
                "--input", str(tensor_path),
                "--mask", str(mask_path),
                "--sample-ratio", "0.5",
            ]
        )
        assert code == 2

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(
            [
                "complete",
                "--input", str(tmp_path / "nope.lrt"),
                "--sample-ratio", "0.5",
            ]
        )
        assert code == 3

    def test_corrupt_input_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.lrt"
        bad.write_bytes(b"JUNKJUNK")
        code = main(["complete", "--input", str(bad), "--sample-ratio", "0.5"])
        assert code == 3

    def test_bad_preset_is_config_error(self, problem):
        _, _, tensor_path, mask_path = problem
        code = main(
            [
                "complete",
                "--input", str(tensor_path),
                "--mask", str(mask_path),
                "--preset", "video",
            ]
        )
        assert code == 2

    def test_bad_config_field_is_config_error(self, problem, tmp_path):
        _, _, tensor_path, mask_path = problem
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"gamma": 1.0}))
        code = main(
            [
                "complete",
                "--input", str(tensor_path),
                "--mask", str(mask_path),
                "--config", str(cfg_path),
            ]
        )
        assert code == 2

    def test_bad_config_value_is_config_error(self, problem, tmp_path, capsys):
        _, _, tensor_path, mask_path = problem
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"omega": [1.0, 1.0]}))
        code = main(
            [
                "complete",
                "--input", str(tensor_path),
                "--mask", str(mask_path),
                "--config", str(cfg_path),
            ]
        )
        assert code == 2
        assert "one value per mode" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            # one stopping rule: the former switch of its denominator
            ("--stop-denominator", "oracle"),
            # every solve starts from one fixed draw: the former start switch
            ("--init", "random"),
            # the --report JSON holds the trace: the former CSV writer
            ("--trace-csv", "trace.csv"),
        ],
        ids=["stop-denominator", "init", "trace-csv"],
    )
    def test_removed_flag_is_a_usage_error(self, problem, capsys, flag, value):
        _, _, tensor_path, mask_path = problem
        with pytest.raises(SystemExit) as exc:
            main(["complete", "--input", str(tensor_path),
                  "--mask", str(mask_path), flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["image", None])
    def test_report_echo_reproduces_the_run(self, problem, tmp_path, preset):
        # the echo names the preset applied, or null, and as a --config
        # file gives the same config and the same recovered tensor
        _, _, tensor_path, mask_path = problem
        base = ["complete", "--input", str(tensor_path),
                "--mask", str(mask_path), "--deterministic-report"]
        first = base + ["--ranks", "2,2,2", "--max-iter", "4"]
        if preset is not None:
            first += ["--preset", preset]
        assert main(first + ["--out", str(tmp_path / "a.lrt"),
                             "--report", str(tmp_path / "a.json")]) == 0
        doc = json.loads((tmp_path / "a.json").read_text())
        assert doc["config"]["preset"] == preset
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(doc["config"]))
        assert main(base + ["--config", str(echo),
                            "--out", str(tmp_path / "b.lrt"),
                            "--report", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()
        assert (tmp_path / "a.lrt").read_bytes() == (
            tmp_path / "b.lrt"
        ).read_bytes()

    def test_csv_requires_tensorize(self, tmp_path):
        csv = tmp_path / "t.csv"
        csv.write_text("1,2\n3,4\n")
        code = main(["complete", "--input", str(csv), "--sample-ratio", "0.5"])
        assert code == 2

    def test_csv_with_tensorize(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        rng = np.random.default_rng(2)
        matrix = rng.uniform(1.0, 9.0, size=(4, 6))
        csv.write_text(
            "\n".join(",".join(f"{v!r}" for v in row.tolist()) for row in matrix)
        )
        code = main(
            [
                "complete",
                "--input", str(csv),
                "--tensorize", "otd:4,3,2",
                "--sample-ratio", "0.75",
                "--seed", "1",
                "--ranks", "2,2,2",
                "--max-iter", "2",
            ]
        )
        assert code == 0
        # these values, 1 to 9, are thresholded to a zero core
        assert json.loads(capsys.readouterr().out)["termination"] in (
            "tol", "max_iter", "collapsed"
        )

    def test_csv_not_utf8_is_an_io_error(self, tmp_path, capsys):
        # a Latin-1 byte: UnicodeDecodeError is a ValueError, which would
        # be a config error (exit 2) with no file name
        csv = tmp_path / "t.csv"
        csv.write_bytes(b"1,2,3,4,5,6\n7,8,\xe9,1,2,3\n")
        code = main(["complete", "--input", str(csv), "--tensorize",
                     "otd:2,3,2", "--sample-ratio", "0.75"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"error: {csv}: not UTF-8 text (invalid continuation byte)\n"

    def test_collapsed_core_warns(self, tmp_path, capsys):
        # a dense rank-(2, 2, 2) tensor at unit RMS, half observed: the
        # default sigma and lam zero the core, which exits 0 with one
        # warning line that names both and the data's scale
        truth = synthetic_tucker(1, density=1.0)[0]
        truth /= np.sqrt(np.mean(truth**2))
        tensor = tmp_path / "t.lrt"
        write_tensor(tensor, truth)
        report = tmp_path / "report.json"
        argv = ["complete", "--input", str(tensor), "--sample-ratio", "0.5",
                "--seed", "1", "--ranks", "2,2,2", "--report", str(report)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["termination"] == "collapsed"
        assert json.loads(report.read_text())["termination"] == "collapsed"
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("warning: the core collapsed to zero ")
        assert "sigma=1, lam=0.01, observed RMS 0.9" in captured.err
        # ten times the data keeps the core: no warning
        write_tensor(tensor, 10.0 * truth)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["termination"] != "collapsed"
        assert captured.err == ""


def _first_observed(value):
    def edit(truth, observed):
        data = truth.copy()
        data[tuple(np.argwhere(observed)[0])] = value
        return data

    return edit


def _nan_off_mask(truth, observed):
    return np.where(observed, truth, np.nan)


def _all_zero(truth, observed):
    return np.zeros_like(truth)


def _as_is(truth, observed):
    return truth


HUGE = 1e200


def _one_percent_error(truth, observed):
    noise = np.random.default_rng(1).standard_normal(truth.shape)
    return truth * (1.0 + 0.01 * noise)


def _huge_noise(truth, observed):
    # full spectrum, so a truncated HOSVD's SNR is set by the dropped
    # energy, not by rounding; squaring these entries overflows float64
    return np.random.default_rng(0).random(truth.shape) * HUGE


# input -> (command, exit code, stream, expected substring); the input edits
# the truth tensor (or is CSV text, the raw bytes of the truth file, or None
# for `mask-gen`), which `metrics` compares with the unedited truth unless
# BAD_RECOVERED edits that too
BAD_INPUTS = {
    "nan-observed": (
        _first_observed(np.nan), "complete", 2, "err", "must be finite"
    ),
    "inf-observed": (
        _first_observed(np.inf), "complete", 2, "err", "must be finite"
    ),
    "scaled-1e200": (
        lambda t, o: t * 1e200, "complete", 2, "err", "overflows float64"
    ),
    "csv-nan": (
        "1,2,3,4,5,6\n7,8,nan,1,2,3\n", "complete", 3, "err", "non-finite"
    ),
    # a spreadsheet's UTF-8 export starts with a byte-order mark
    "csv-bom": (
        "\ufeff1,2,3,4,5,6\n7,8,9,1,2,3\n", "complete", 0, "out",
        '"termination"',
    ),
    # Python's float() reads 1_0 as 10.0
    "csv-underscore": (
        "1,2,3,4,5,6\n7,8,1_0,1,2,3\n", "complete", 3, "err",
        "t.csv:2: non-numeric field",
    ),
    "all-zero": (_all_zero, "complete", 0, "out", '"rse": null'),
    # the truth is unknown off the mask, so no metric is defined
    "nan-off-mask": (_nan_off_mask, "complete", 0, "out", '"rse": null'),
    "hosvd-demo-nan": (
        _first_observed(np.nan), "hosvd-demo", 2, "err", "must be finite"
    ),
    # finite data whose Grams overflow unless rescaled; the SNRs must match
    # the same data at unit scale
    "hosvd-demo-1e200": (
        _huge_noise, "hosvd-demo", 0, "out", "tn,sparsity,snr"
    ),
    # a NaN threshold would print a row equal to the tn = 0 row
    "hosvd-demo-tn-nan": (_as_is, "hosvd-demo", 2, "err", "got nan"),
    # an image-shaped input: a bad last threshold must fail before the
    # first threshold's image is written
    "hosvd-demo-tn-nan-last": (
        lambda t, o: t[:, :, :3], "hosvd-demo", 2, "err", "got nan"
    ),
    "hosvd-demo-tn-negative": (_as_is, "hosvd-demo", 2, "err", "got -0.05"),
    "hosvd-demo-tn-empty-field": (
        _as_is, "hosvd-demo", 2, "err", "empty field"
    ),
    "metrics-nan-truth": (_nan_off_mask, "metrics", 0, "out", '"psnr": null'),
    "metrics-all-zero-truth": (
        _all_zero, "metrics", 0, "out", '"rse": null'
    ),
    # finite data whose squares, or the peak's square, overflow float64
    "metrics-1e200": (lambda t, o: t * HUGE, "metrics", 0, "out", '"psnr": '),
    "metrics-max-value-1e200": (_as_is, "metrics", 0, "out", '"psnr": '),
    # finite input whose first factor subproblem overflows under BAD_CONFIGS
    "lam-1e300": (
        lambda t, o: t * 1e10, "complete", 4, "err", "at iteration 1"
    ),
    # every smoothed mode uses the difference matrix: the former per-mode
    # switch is an unknown field, whatever value it holds
    "config-toeplitz-null-str": (
        _as_is, "complete", 2, "err", "unknown config fields"
    ),
    "config-toeplitz-flags": (
        _as_is, "complete", 2, "err",
        "unknown config fields: ['toeplitz_modes']",
    ),
    # every run stops on the relative change normalized by max(||Z||, 1):
    # the former normalization switch is an unknown field
    "config-stop-denominator": (
        _as_is, "complete", 2, "err",
        "unknown config fields: ['stop_denominator']",
    ),
    "config-max-iter-true": (_as_is, "complete", 2, "err", "integers"),
    "config-ranks-bool": (_as_is, "complete", 2, "err", "integers"),
    # every solve starts from one fixed draw: the former start switch and
    # its seed are unknown fields, whatever value they hold
    "config-seed-false": (
        _as_is, "complete", 2, "err", "unknown config fields: ['seed']"
    ),
    "config-init-hosvd": (
        _as_is, "complete", 2, "err", "unknown config fields: ['init']"
    ),
    # --seed draws a generated mask, so it has nothing to seed with --mask
    "seed-with-mask": (
        _as_is, "complete", 2, "err",
        "--seed seeds a generated mask (--sample-ratio or --missing-spec) "
        "only",
    ),
    # a header that declares more payload than the file holds
    "metrics-oversized-header": (
        b"LRT1" + np.asarray([2, 2**18, 2**18], dtype="<u4").tobytes()
        + bytes(64),
        "metrics", 3, "err", "truncated file while reading payload",
    ),
    "config-lam-true": (_as_is, "complete", 2, "err", "finite numbers"),
    "config-omega-ragged": (_as_is, "complete", 2, "err", "got omega="),
    # a comma string is the --ranks flag's syntax; a config file gives a list
    "config-ranks-str": (_as_is, "complete", 2, "err", "got ranks='2,2,2'"),
    # the count of --ranks/--dims fields is the order, so none may be empty
    "ranks-empty-field": (_as_is, "complete", 2, "err", "empty field"),
    "dims-trailing-comma": (None, "mask-gen", 2, "err", "empty field"),
    "spec-not-object": (None, "mask-gen", 2, "err", "must be a JSON object"),
    "spec-params-list": (None, "mask-gen", 2, "err", "params must be"),
    "spec-ratio-null": (None, "mask-gen", 2, "err", "ratio must be a number"),
    "spec-k-null": (None, "mask-gen", 2, "err", "k must be an integer"),
    "spec-slices-int": (None, "mask-gen", 2, "err", "slices must be a list"),
    "spec-structural-str": (None, "mask-gen", 2, "err", "structural must be"),
}
# --config file entries for the BAD_INPUTS cases that need them
BAD_CONFIGS = {
    "lam-1e300": {"lam": 1e300},
    "config-toeplitz-null-str": {"toeplitz_modes": [None, 1, "x"]},
    "config-toeplitz-flags": {"toeplitz_modes": [1, 0, 1]},
    "config-stop-denominator": {"stop_denominator": "blind"},
    "config-max-iter-true": {"max_iter": True},
    "config-ranks-bool": {"ranks": [True, 2, 2]},
    "config-seed-false": {"seed": False},
    "config-init-hosvd": {"init": "hosvd"},
    "config-lam-true": {"lam": True},
    "config-omega-ragged": {"omega": [[1, 2], 3, 4]},
    "config-ranks-str": {"ranks": "2,2,2"},
}
# command-line flags appended for the BAD_INPUTS cases that need them; a
# repeated flag overrides the earlier one
BAD_FLAGS = {
    "ranks-empty-field": ["--ranks", "2,,2,2"],
    "seed-with-mask": ["--seed", "3"],
    "dims-trailing-comma": ["--dims", "4,3,2,"],
    "hosvd-demo-tn-nan": ["--tn-grid", "0,nan"],
    "hosvd-demo-tn-nan-last": [
        "--tn-grid", "0,0.05,nan", "--images-out", "img"
    ],
    "hosvd-demo-tn-negative": ["--tn-grid", "0,-0.05"],
    "hosvd-demo-tn-empty-field": ["--tn-grid", "0,,0.05"],
    "metrics-max-value-1e200": ["--max-value", "1e200"],
}
# --recovered edits for the `metrics` cases that need them
BAD_RECOVERED = {
    "metrics-1e200": lambda t, o: _one_percent_error(t, o) * HUGE,
    "metrics-max-value-1e200": _one_percent_error,
}
# --missing-spec file contents for the mask-gen cases
BAD_SPECS = {
    "spec-not-object": "[1]",
    "spec-params-list": '{"kind": "random", "params": [0.5]}',
    "spec-ratio-null": '{"kind": "random", "params": {"ratio": null}}',
    "spec-k-null": '{"kind": "drop_every_kth_slice", "params": {"k": null}}',
    "spec-slices-int": '{"kind": "whole_slices", "params": {"slices": 5}}',
    "spec-structural-str": (
        '{"kind": "composite",'
        ' "params": {"structural": "whole_slices", "ratio": 0.5}}'
    ),
    "dims-trailing-comma": '{"kind": "random", "params": {"ratio": 0.5}}',
}


def strict_json(text):
    """json.loads that refuses the non-standard NaN/Infinity literals."""

    def reject(name):
        raise ValueError(f"non-standard JSON literal {name}")

    return json.loads(text, parse_constant=reject)


class TestBadInput:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exit_code_and_message(
        self, case, problem, tmp_path, capsys, monkeypatch
    ):
        truth, mask, tensor_path, mask_path = problem
        # relative paths in BAD_FLAGS land in tmp_path
        monkeypatch.chdir(tmp_path)
        make, command, code, stream, text = BAD_INPUTS[case]
        if isinstance(make, bytes):
            tensor_path.write_bytes(make)
        elif isinstance(make, str):
            csv = tmp_path / "t.csv"
            csv.write_text(make)
            source = ["--input", str(csv), "--tensorize", "otd:2,3,2",
                      "--sample-ratio", "0.75"]
        elif make is not None:
            write_tensor(tensor_path, make(truth, mask.boolean()))
            source = ["--input", str(tensor_path), "--mask", str(mask_path)]
        report = tmp_path / "report.json"
        if command == "complete":
            # ranks and iteration cap go in the config file, not in flags,
            # which would outrank a BAD_CONFIGS entry for the same field
            config = tmp_path / "config.json"
            config.write_text(json.dumps(
                {"ranks": [2, 2, 2], "max_iter": 3, **BAD_CONFIGS.get(case, {})}
            ))
            argv = ["complete", *source, "--config", str(config),
                    "--report", str(report)]
        elif command == "mask-gen":
            spec = tmp_path / "spec.json"
            spec.write_text(BAD_SPECS[case])
            argv = ["mask-gen", "--dims", "4,3,2", "--missing-spec", str(spec),
                    "--out", str(tmp_path / "m.lrm")]
        elif command == "hosvd-demo":
            argv = ["hosvd-demo", "--input", str(tensor_path),
                    "--ranks", "3,3,3", "--tn-grid", "0"]
        else:
            recovered = tmp_path / "recovered.lrt"
            edit = BAD_RECOVERED.get(case, _as_is)
            write_tensor(recovered, edit(truth, mask.boolean()))
            argv = ["metrics", "--truth", str(tensor_path),
                    "--recovered", str(recovered), "--mask", str(mask_path)]
        argv += BAD_FLAGS.get(case, [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = main(argv)
        captured = capsys.readouterr()
        assert got == code
        assert text in (captured.out if stream == "out" else captured.err)
        # a failure is one "error:" line, with no numpy warnings before it
        assert [str(w.message) for w in caught] == []
        if code == 0 and '"termination": "collapsed"' in captured.out:
            # a solve whose core is all zero exits 0 with one warning line
            assert captured.err.startswith("warning: ")
            assert captured.err.count("\n") == 1
        elif code == 0:
            assert captured.err == ""
        else:
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
        if command == "metrics" and code == 0:
            doc = strict_json(captured.out)
            if case in BAD_RECOVERED:
                # finite data has finite figures at any scale
                assert all(isinstance(v, float) for v in doc.values())
            else:
                assert all(v is None for v in doc.values())
        if command == "hosvd-demo" and code != 0:
            assert list(tmp_path.glob("*.ppm")) == []
        if command == "hosvd-demo" and code == 0:
            write_tensor(tensor_path, make(truth, mask.boolean()) / HUGE)
            assert main(argv) == 0
            unit = capsys.readouterr().out
            snrs = [float(line.split(",")[2])
                    for line in captured.out.splitlines()[1:]]
            unit_snrs = [float(line.split(",")[2])
                         for line in unit.splitlines()[1:]]
            assert snrs and all(np.isfinite(snrs))
            assert snrs == pytest.approx(unit_snrs, rel=1e-9)
        if command != "complete":
            return
        # a run that solves always writes its report, in standard JSON
        assert report.exists() == (code == 0)
        if code == 0:
            metrics = strict_json(report.read_text())["metrics"]
            summary = strict_json(captured.out.splitlines()[-1])
            assert metrics.items() <= summary.items()

    @pytest.mark.parametrize("flag", ["--input", "--mask"])
    def test_dims_whose_product_passes_int64(
        self, flag, problem, tmp_path, capsys
    ):
        # 2^31 * 2^31 * 4 = 2^64 elements, which wrap to 0 in int64: an
        # LRT1 header, or an LRM1 one with no index, past the element
        # budget is an I/O error
        truth, mask, tensor_path, mask_path = problem
        header = np.asarray([3, 2**31, 2**31, 4], "<u4").tobytes()
        if flag == "--input":
            wrapped = tmp_path / "wrap.lrt"
            wrapped.write_bytes(b"LRT1" + header)
            argv = ["hosvd-demo", "--input", str(wrapped)]
        else:
            wrapped = tmp_path / "wrap.lrm"
            wrapped.write_bytes(b"LRM1" + header + bytes(8))  # count 0
            argv = ["metrics", "--truth", str(tensor_path), "--recovered",
                    str(tensor_path), "--mask", str(wrapped)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: dims (2147483648, 2147483648, 4) overflow element "
            "budget\n"
        )

    @pytest.mark.parametrize(
        "spec, message",
        [
            ('{"kind": "random"}', "random spec lacks required key 'ratio'"),
            ('{"kind": "drop_every_kth_slice"}',
             "drop_every_kth_slice spec lacks required key 'k'"),
            ('{"kind": "time_window", "params": {"period": 4, "length": 1}}',
             "time_window spec lacks required key 'start'"),
            ('{"kind": "composite", "params": {"ratio": 0.5}}',
             "composite spec lacks required key 'structural'"),
            ('{"kind": "composite", "params": {"ratio": 0.5,'
             ' "structural": {"params": {"slices": [1]}}}}',
             "composite structural spec lacks required key 'kind'"),
        ],
        ids=["random", "kth-slice", "time-window", "composite",
             "structural-part"],
    )
    def test_spec_without_required_key_names_it(
        self, spec, message, tmp_path, capsys
    ):
        code = main(["mask-gen", "--dims", "4,4,4", "--missing-spec", spec,
                     "--out", str(tmp_path / "m.lrm")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "m.lrm").exists()


class TestMaskGenDims:
    @pytest.mark.parametrize(
        "dims, source",
        [
            ("100000,100000,100", ["--ratio", "0.5"]),
            (
                "100000,100000,100",
                ["--missing-spec",
                 '{"kind":"whole_slices","mode":0,"params":{"slices":[1]}}'],
            ),
            ("4294967297,2", ["--ratio", "0"]),
            ("4294967296,4294967296", ["--ratio", "0"]),
            ("-1,-5", ["--ratio", "0.5"]),
        ],
        ids=["past-memory", "past-memory-slices", "past-uint32",
             "wraps-int64", "negative"],
    )
    def test_one_error_line_before_any_allocation(
        self, dims, source, tmp_path, capsys
    ):
        # dims past memory, the uint32 field of an LRM1 header or int64
        # are a config error on one line, with no numpy message
        out = tmp_path / "m.lrm"
        code = main(["mask-gen", f"--dims={dims}", *source,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        shown = dims.replace(",", ", ")
        assert err.startswith(
            f"error: dims ({shown}) must each lie in [1, 2**32 - 1], with "
            "at most "
        )
        assert not out.exists()


class TestAnyOrder:
    @pytest.mark.parametrize("order", [1, 2, 4, 5])
    def test_commands_take_the_order_of_the_data(self, order, tmp_path, capsys):
        dims = (5, 4, 3, 3, 2)[:order]
        truth, _, _ = synthetic_tucker(
            seed=2, dims=dims, ranks=(1,) * order, density=1.0
        )
        tensor_path, mask_path = tmp_path / "t.lrt", tmp_path / "m.lrm"
        write_tensor(tensor_path, truth)
        text = ",".join(str(d) for d in dims)
        assert main(["mask-gen", "--dims", text, "--ratio", "0.7",
                     "--seed", "1", "--out", str(mask_path)]) == 0
        assert read_mask(mask_path).dims == dims
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"alpha": [0.5] * order, "omega": [1.0] + [0.0] * (order - 1)}
        ))
        base = ["complete", "--input", str(tensor_path), "--mask",
                str(mask_path), "--ranks", ",".join(["1"] * order),
                "--max-iter", "5", "--out", str(tmp_path / "rec.lrt")]
        assert main(base + ["--config", str(cfg_path)]) == 0
        assert read_tensor(tmp_path / "rec.lrt").shape == dims
        assert main(["hosvd-demo", "--input", str(tensor_path),
                     "--tn-grid", "0"]) == 0
        capsys.readouterr()
        # the presets and the default alpha/omega are three-way
        assert main(base + ["--preset", "image"]) == 2
        assert "one value per mode" in capsys.readouterr().err


def checkout_env(env):
    """`env` with this checkout's lrsetd first on PYTHONPATH."""
    src = str(Path(lrsetd.__file__).resolve().parent.parent)
    return dict(env, PYTHONPATH=os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    ))


def run_python(code, env):
    """Run `code` in a fresh interpreter that imports lrsetd from this
    checkout, with environment `env`; returns its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=checkout_env(env),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return done.stdout


class TestClosedStdout:
    def test_metrics_exits_141_and_prints_nothing(self, problem):
        # the reader of stdout has quit before the figures are written, as
        # in `lrsetd metrics ... | head -c 0`: that is not an I/O error
        _, _, tensor_path, mask_path = problem
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "lrsetd.cli", "metrics",
                 "--truth", str(tensor_path), "--recovered", str(tensor_path),
                 "--mask", str(mask_path)],
                env=checkout_env(dict(os.environ)), stdout=write_end,
                stderr=subprocess.PIPE, timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 141
        assert done.stderr == b""


class TestRuntimeImports:
    def test_solve_and_cli_never_load_scipy(self):
        # numpy's LAPACK serves every runtime solve, so a process loads one
        # BLAS thread pool
        probe = textwrap.dedent(
            """
            import json, sys
            import numpy as np
            import lrsetd, lrsetd.cli
            from lrsetd import preset_config, random_mask, solve
            f = np.random.default_rng(0).uniform(1, 2, (3, 6))
            truth = 100 * np.einsum("i,j,k->ijk", *f)
            mask = random_mask(truth.shape, 0.6, seed=1)
            cfg = preset_config("image", ranks=(2, 2, 2), max_iter=2, tol=1e-300)
            report = solve(np.where(mask.boolean(), truth, 0.0), mask, cfg)
            print(json.dumps([report.iterations, sorted(
                name for name in sys.modules if name.split(".")[0] == "scipy"
            )]))
            """
        )
        iterations, loaded = json.loads(run_python(probe, dict(os.environ)))
        assert iterations == 2
        assert loaded == []


class TestThreadsVariable:
    def test_import_leaves_environment_unchanged(self):
        # BLAS thread caps are the standard variables, which numpy's BLAS
        # reads once, at load; the former LRSETD_THREADS is ignored
        probe = textwrap.dedent(
            """
            import json, os
            before = set(os.environ.items())
            import lrsetd.cli
            print(json.dumps(sorted(before ^ set(os.environ.items()))))
            """
        )
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env["LRSETD_THREADS"] = "1"
        assert json.loads(run_python(probe, env)) == []


class TestMaskGen:
    def test_random_ratio(self, tmp_path, capsys):
        out = tmp_path / "m.lrm"
        code = main(
            ["mask-gen", "--dims", "4,5,6", "--ratio", "0.5", "--seed", "2",
             "--out", str(out)]
        )
        assert code == 0
        mask = read_mask(out)
        assert mask.dims == (4, 5, 6)
        assert mask.n_observed == 60
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"dims": [4, 5, 6], "observed": 60}

    def test_matches_library_generator(self, tmp_path):
        out = tmp_path / "m.lrm"
        main(["mask-gen", "--dims", "6,6,6", "--ratio", "0.3", "--seed", "7",
              "--out", str(out)])
        np.testing.assert_array_equal(
            read_mask(out).boolean(),
            random_mask((6, 6, 6), 0.3, seed=7).boolean(),
        )

    def test_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {"kind": "whole_slices", "mode": 1,
                 "params": {"slices": [0]}}
            )
        )
        out = tmp_path / "m.lrm"
        code = main(
            ["mask-gen", "--dims", "3,4,2", "--missing-spec", str(spec_path),
             "--out", str(out)]
        )
        assert code == 0
        b = read_mask(out).boolean()
        assert not b[:, 0, :].any() and b[:, 1:, :].all()

    def test_requires_exactly_one_source(self, tmp_path):
        code = main(
            ["mask-gen", "--dims", "3,3,3", "--out", str(tmp_path / "m.lrm")]
        )
        assert code == 2


class TestMetricsCommand:
    def test_values_match_library(self, problem, tmp_path, capsys):
        from lrsetd.masks import nmae, psnr, rse

        truth, mask, tensor_path, mask_path = problem
        rng = np.random.default_rng(0)
        rec = truth + rng.standard_normal(truth.shape)
        rec_path = tmp_path / "rec.lrt"
        write_tensor(rec_path, rec)
        code = main(
            ["metrics", "--truth", str(tensor_path),
             "--recovered", str(rec_path), "--mask", str(mask_path)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rse"] == pytest.approx(rse(truth, rec), rel=1e-12)
        assert doc["nmae"] == pytest.approx(nmae(truth, rec, mask), rel=1e-12)
        assert doc["psnr"] == pytest.approx(psnr(truth, rec, mask), rel=1e-12)

    def test_shape_mismatch_is_config_error(self, problem, tmp_path):
        _, _, tensor_path, mask_path = problem
        other = tmp_path / "other.lrt"
        write_tensor(other, np.zeros((2, 2, 2)))
        code = main(
            ["metrics", "--truth", str(tensor_path),
             "--recovered", str(other), "--mask", str(mask_path)]
        )
        assert code == 2


class TestHosvdDemo:
    def test_tn_zero_row_is_lossless(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        t = rng.uniform(0.0, 1.0, size=(6, 6, 3))
        path = tmp_path / "t.lrt"
        write_tensor(path, t)
        code = main(
            ["hosvd-demo", "--input", str(path), "--tn-grid", "0"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "tn,sparsity,snr"
        tn, sparsity, snr = lines[1].split(",")
        assert float(tn) == 0.0 and float(sparsity) == 0.0
        assert snr == "inf" or float(snr) > 200.0

    def test_sweep_csv_file(self, tmp_path):
        rng = np.random.default_rng(3)
        t = rng.uniform(0.0, 255.0, size=(8, 8, 3))
        path = tmp_path / "t.lrt"
        out = tmp_path / "sweep.csv"
        write_tensor(path, t)
        code = main(
            ["hosvd-demo", "--input", str(path), "--scale", "255",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5  # header + default grid of 4
        sparsities = [float(l.split(",")[1]) for l in lines[1:]]
        assert sparsities == sorted(sparsities)

    def test_ranks_argument(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        t = rng.uniform(0.0, 1.0, size=(6, 6, 6))
        path = tmp_path / "t.lrt"
        write_tensor(path, t)
        code = main(
            ["hosvd-demo", "--input", str(path), "--ranks", "2,2,2",
             "--tn-grid", "0,0.5"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3


# JSON of every type, nested a little; floats include NaN, infinities and
# 1e308, which json writes and reads back
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 12)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def _paths(value, prefix=()):
    """The paths to the values nested in JSON objects and lists that are
    no non-empty object or list themselves."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        if isinstance(item, (dict, list)) and item:
            yield from _paths(item, prefix + (key,))
        else:
            yield prefix + (key,)


# values of the wrong type or range for any field, and any JSON
BAD_VALUES = (
    st.sampled_from(
        [None, True, "x", [], {}, -1, 0, 1.5, 10**6, math.nan, math.inf]
    )
    | JSON_VALUES
)


def _mostly(strategy, other=JSON_VALUES):
    """`strategy` three times in four, else `other`. (``st.one_of`` would
    fold the repeats into one branch.)"""
    return st.sampled_from([strategy] * 3 + [other]).flatmap(lambda s: s)


@st.composite
def _broken(draw, objects, values=BAD_VALUES, new_keys=()):
    """An object from `objects` with one value, at any depth, or one of
    `new_keys`, drawn from `values` instead."""
    obj = draw(objects)
    paths = list(_paths(obj)) + [(key,) for key in new_keys]
    path = draw(st.sampled_from(paths))
    inner = obj
    for key in path[:-1]:
        inner[key] = copy.copy(inner[key])
        inner = inner[key]
    inner[path[-1]] = draw(values)
    return obj


def _per_mode(element):
    return st.lists(element, min_size=3, max_size=3)


# fields that a tiny three-way tensor accepts
VALID_CONFIG = st.fixed_dictionaries(
    {},
    optional={
        "preset": st.sampled_from(["image", "traffic-random"]),
        "ranks": _per_mode(st.integers(1, 2)),
        "alpha": _per_mode(st.floats(0.0, 2.0)),
        "omega": _per_mode(st.floats(0.0, 2.0)),
        "sigma": st.floats(0.0, 10.0),
        "lam": st.floats(1e-3, 10.0),
        "beta": st.floats(1e-3, 10.0),
        "tol": st.floats(1e-8, 1.0),
        "max_iter": st.integers(1, 3),
    },
)
# config file text: a config with one bad value or the unknown key
# "seed", other JSON, or no JSON at all
BROKEN_CONFIG = _mostly(
    _broken(VALID_CONFIG, new_keys=("seed",)).map(json.dumps),
    JSON_VALUES.map(json.dumps) | st.text(max_size=12),
)


def _spec(kind, params):
    return st.fixed_dictionaries(
        {
            "kind": st.just(kind),
            "mode": st.integers(0, 2),
            "params": st.fixed_dictionaries(params),
            "seed": st.integers(0, 3),
        }
    )


_STRUCTURAL_SPECS = {
    "drop_every_kth_slice": _spec(
        "drop_every_kth_slice", {"k": st.integers(1, 3), "phase": st.just(0)}
    ),
    "time_window": _spec(
        "time_window",
        {
            "period": st.integers(1, 4),
            "start": st.integers(0, 3),
            "length": st.integers(0, 3),
        },
    ),
    "whole_slices": _spec(
        "whole_slices", {"slices": st.lists(st.integers(0, 1), max_size=2)}
    ),
}


def _kind_of(specs):
    """A spec of a kind drawn evenly from `specs`."""
    return st.sampled_from(sorted(specs)).flatmap(specs.get)


_RATIO = st.floats(0.0, 1.0)
VALID_SPEC = _kind_of(
    {
        **_STRUCTURAL_SPECS,
        "random": _spec("random", {"ratio": _RATIO}),
        "composite": _spec(
            "composite",
            {"structural": _kind_of(_STRUCTURAL_SPECS), "ratio": _RATIO},
        ),
    }
)
BROKEN_SPEC = _mostly(_broken(VALID_SPEC))


def _not_an_int(text):
    """True unless argparse would read `text` as an int, such as a broken
    --max-iter of "+9999" that would make a long run."""
    try:
        int(text)
    except ValueError:
        return True
    return False


VALID_FLAGS = st.fixed_dictionaries(
    # always given, so that no run goes past a few iterations
    {"--max-iter": st.sampled_from(["1", "2", "3"])},
    optional={
        "--ranks": st.sampled_from(["1,1,1", "2,2,1", " 1, 2 ,1"]),
        "--tol": st.sampled_from(["1e-3", "1e-300"]),
        "--beta": st.sampled_from(["0.5", "1e300", "1e-300"]),
        "--preset": st.sampled_from(["image", "traffic-wholeday"]),
        "--format": st.just("lrt"),
    },
)
BROKEN_FLAGS = _broken(
    VALID_FLAGS,
    st.sampled_from(
        ["", "x", "0", "-1", "2.5", "nan", "inf", "9,9,9", "1,,1", "video"]
    )
    | st.text(max_size=6).filter(_not_an_int),
)

# how the mask is given, as (option, --sample-ratio)
VALID_MASK = st.sampled_from(
    [("file", ""), ("spec", ""), ("spec-seeded", ""), ("spec-path", "")]
    + [("ratio", r) for r in ("0.5", "0", "1")]
)
BROKEN_MASK = st.sampled_from(
    [("none", ""), ("two", ""), ("file-seeded", "")]
    + [("ratio", r) for r in ("1.5", "-0.1", "nan", "x")]
)

# XOR masks for bytes of the tensor file, and where to cut it
BROKEN_TENSOR = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
        min_size=1,
        max_size=2,
    ),
    st.none(),
) | st.tuples(st.just([]), st.integers(0, 10**6))


@st.composite
def fuzz_cases(draw):
    """One run's inputs, all plausible but the one `target` names."""
    # the spec and the config have the most fields to break
    target = draw(
        st.sampled_from(
            ["none", "flags", "mask", "tensor"] + ["config"] * 3 + ["spec"] * 4
        )
    )

    def pick(name, valid, broken):
        return draw(broken if name == target else valid)

    spec = pick("spec", VALID_SPEC, BROKEN_SPEC)
    mask = pick("mask", VALID_MASK, BROKEN_MASK)
    if target == "spec":
        mask = (draw(st.sampled_from(["spec", "spec-path"])), "")
    return {
        "flags": pick("flags", VALID_FLAGS, BROKEN_FLAGS),
        "config": pick(
            "config", st.none() | VALID_CONFIG.map(json.dumps), BROKEN_CONFIG
        ),
        "spec": json.dumps(spec),
        "mask": mask,
        "tensor": pick("tensor", st.just(([], None)), BROKEN_TENSOR),
    }


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A tiny tensor's LRT1 bytes and a matching mask file."""
    root = tmp_path_factory.mktemp("fuzz")
    truth, _, _ = synthetic_tucker(seed=1, dims=(4, 3, 2))
    write_tensor(root / "truth.lrt", truth)
    write_mask(root / "mask.lrm", random_mask(truth.shape, 0.6, seed=5))
    return root, (root / "truth.lrt").read_bytes()


def fuzz_argv(root, clean, case):
    """Write the case's files into `root` and return its argv."""
    raw = bytearray(clean)
    flips, cut = case["tensor"]
    for position, bits in flips:
        raw[position % len(raw)] ^= bits
    if cut is not None:
        raw = raw[: cut % (len(raw) + 1)]
    (root / "input.lrt").write_bytes(bytes(raw))
    argv = [
        "complete",
        f"--input={root / 'input.lrt'}",
        f"--out={root / 'out.lrt'}",
        f"--report={root / 'report.json'}",
    ]
    argv += [f"{flag}={value}" for flag, value in case["flags"].items()]
    if case["config"] is not None:
        (root / "config.json").write_text(case["config"], encoding="utf-8")
        argv.append(f"--config={root / 'config.json'}")
    spec = case["spec"]
    (root / "spec.json").write_text(spec, encoding="utf-8")
    mask_file = f"--mask={root / 'mask.lrm'}"
    option, ratio = case["mask"]
    argv += {
        "file": [mask_file],
        "spec": [f"--missing-spec={spec}"],
        "spec-seeded": [f"--missing-spec={spec}", "--seed=3"],
        "spec-path": [f"--missing-spec={root / 'spec.json'}"],
        "ratio": [f"--sample-ratio={ratio}"],
        "none": [],
        "two": [mask_file, f"--missing-spec={spec}"],
        "file-seeded": [mask_file, "--seed=3"],
    }[option]
    return argv


class TestBoundaryFuzz:
    # random config files, missing specs, flag values and corrupted tensor
    # files through `complete`, in process: every run ends with a
    # documented exit code, argparse's own exit being 2, and none with a
    # traceback. Derandomized, so every run tries the same cases.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=fuzz_cases())
    def test_complete_exits_with_a_documented_code(self, fuzz_files, case):
        root, clean = fuzz_files
        argv = fuzz_argv(root, clean, case)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
        assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
