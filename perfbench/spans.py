"""Span tracing of lrsetd from outside the library.

:class:`Tracer` swaps each traced public function, in every ``lrsetd.*``
module namespace that binds it, for a wrapper that records a span, so the
library's own code (``solve`` included) runs unmodified. :meth:`Tracer.remove`
puts every original back.

A span is ``[name, start, end, parent, gflop, nbytes, alloc]``: ``parent``
is the index of the enclosing span (-1 at the top), ``gflop`` is the
computed floating-point work of a mode product, ``nbytes`` the size of the
file an I/O call read or wrote, and ``alloc`` the tracemalloc peak above the
span's starting allocation (only when the tracer runs with ``memory=True``).
Self time is a span's duration minus the durations of its children.
"""

import functools
import os
import sys
import time
import tracemalloc
from collections import defaultdict

# Traced functions by module. The solver blocks and ``solve``; the kernels
# and tensor primitives that lrsetd.solver imports; the HOSVD sweep steps;
# and the mask and I/O calls made during set-up.
TRACED = {
    "solver": (
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
    ),
    "kernels": (
        "svd_shrink",
        "soft_shrink",
        "spd_factorize",
        "spd_solve",
        "spectral_norm",
        "toeplitz_diff",
    ),
    "tensor": ("unfold", "fold", "mode_product", "multilinear", "frobenius", "inner"),
    "hosvd": ("hosvd", "truncate_core", "reconstruction_snr"),
    "masks": ("random_mask", "structured_mask"),
    "io": ("read_image", "write_image", "read_tensor", "read_traffic_csv", "tensorize"),
}
# the solve closure returned by kernels.spd_factorize gets its own span name
FACTOR_SOLVE = "kernels.spd_factorize.solve"
FILE_IO = ("io.read_image", "io.write_image", "io.read_tensor", "io.read_traffic_csv")


def span_names():
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    names.insert(names.index("kernels.spd_factorize") + 1, FACTOR_SOLVE)
    return names


def _mode_product_gflop(args, kwargs):
    tensor = kwargs.get("tensor", args[0] if args else None)
    matrix = kwargs.get("matrix", args[1] if len(args) > 1 else None)
    try:
        return 2.0 * matrix.shape[0] * tensor.size / 1e9
    except AttributeError:  # non-array argument: the call itself will fail
        return 0.0


def _lrsetd_modules():
    return [
        m
        for key, m in sorted(sys.modules.items())
        if m is not None and (key == "lrsetd" or key.startswith("lrsetd."))
    ]


class Tracer:
    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self._stack = []  # indices of open spans
        self._peak_seen = []  # per open span: highest traced memory so far
        self._swapped = []  # (module, attribute, original)

    # ----------------------------------------------------------- spans

    def _open(self, name, gflop):
        parent = self._stack[-1] if self._stack else -1
        alloc_base = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._peak_seen:
                self._peak_seen[-1] = max(self._peak_seen[-1], peak)
            tracemalloc.reset_peak()
            alloc_base = current
            self._peak_seen.append(current)
        self.spans.append([name, time.perf_counter(), 0.0, parent, gflop, 0, alloc_base])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index, nbytes):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = nbytes
        self._stack.pop()
        if self.memory:
            peak = max(self._peak_seen.pop(), tracemalloc.get_traced_memory()[1])
            span[6] = peak - span[6]
            if self._peak_seen:
                self._peak_seen[-1] = max(self._peak_seen[-1], peak)

    def wrap(self, name, fn):
        open_span, close_span = self._open, self._close
        counts_flops = name == "tensor.mode_product"
        sizes_file = name in FILE_IO
        returns_solver = name == "kernels.spd_factorize"

        def traced(*args, **kwargs):
            gflop = _mode_product_gflop(args, kwargs) if counts_flops else 0.0
            index = open_span(name, gflop)
            nbytes = 0
            try:
                result = fn(*args, **kwargs)
                if sizes_file:
                    nbytes = os.path.getsize(args[0] if args else kwargs["path"])
            finally:
                close_span(index, nbytes)
            if returns_solver and callable(result):
                return self.wrap(FACTOR_SOLVE, result)
            return result

        functools.update_wrapper(traced, fn)
        traced.perfbench_span = name
        return traced

    # ------------------------------------------------- install / remove

    def install(self):
        """Swap every traced function in every loaded lrsetd module.
        Functions a later version of the library no longer has are
        skipped and report zero calls."""
        modules = _lrsetd_modules()
        for mod, fns in TRACED.items():
            home = sys.modules.get(f"lrsetd.{mod}")
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{mod}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._swapped.append((module, attr, original))
        if self.memory:
            tracemalloc.start()
        return self

    def remove(self):
        if self.memory:
            tracemalloc.stop()
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped = []
        return not any(
            hasattr(value, "perfbench_span")
            for module in _lrsetd_modules()
            for value in vars(module).values()
        )

    # ------------------------------------------------------- summaries

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def summary(self):
        """name -> dict(calls, self_s, gflop, bytes, peak_alloc) over all spans."""
        out = defaultdict(
            lambda: dict(calls=0, self_s=0.0, gflop=0.0, bytes=0, peak_alloc=0)
        )
        for span, self_s in zip(self.spans, self.self_times()):
            row = out[span[0]]
            row["calls"] += 1
            row["self_s"] += self_s
            row["gflop"] += span[4]
            row["bytes"] += span[5]
            row["peak_alloc"] = max(row["peak_alloc"], span[6])
        return out

    def path_summary(self):
        """(parent chain of span names) -> [calls, self seconds], which
        shows where in the call tree each span's time was spent."""
        paths = []
        out = defaultdict(lambda: [0, 0.0])
        for span, self_s in zip(self.spans, self.self_times()):
            parent = span[3]
            path = (paths[parent] + " > " if parent >= 0 else "") + span[0]
            paths.append(path)
            out[path][0] += 1
            out[path][1] += self_s
        return out
