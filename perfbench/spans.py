"""In-memory span recorder for the traced benchmark run.

``install`` wraps the public functions of the hexsum modules where they are
looked up: every hexsum module namespace that holds the function object
(so ``hexsum.cli.bernstein_integral`` and ``hexsum.kernels.bernstein_integral``
both record), plus a few ``SpectralFunction`` methods on the class.  The
library source is not edited.  Each call becomes one span (function key,
parent span, start, end, computed work count); spans stay in memory and are
reduced to per-function and per-layer figures when the step ends.

``self_s`` of a function is the total duration of its spans minus the time
covered by their direct child spans, so the self times of all spans of a
step add up to the step's root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("lattice", "fourier", "kernels", "means", "families", "verify", "cli")

#: methods wrapped on the class, keyed by module then class
METHODS = {
    "fourier": {
        "SpectralFunction": (
            "__init__",
            "items",
            "shell_masses",
            "l2_norm",
            "degree",
            "is_real_symmetric",
        ),
    },
}

#: per-point scalar helpers, called tens of thousands of times by verify:
#: a span costs more than their body, so their time stays with the caller
UNWRAPPED = {
    "fourier.phi",
    "fourier.SpectralFunction.coeff",
    "kernels.classical_kernel_deriv",
    "kernels.hex_kernel_closed",
    "lattice.from_cartesian",
    "lattice.to_cartesian",
    "lattice.is_in_omega",
    "lattice.fold",
}

#: fourier functions that read or rebuild the sparse coefficient store; the
#: rest of the fourier module (grids, basis evaluation, transforms, norms,
#: shell scaling) is the "transforms" layer
FOURIER_STORE = {
    "truncate_spectrum",
    "subtract",
    "max_coeff_diff",
    "spectral_to_json_dict",
    "save_spectral",
    "spectral_from_json_dict",
    "load_spectral",
}


def layer_of(key: str) -> str:
    """Layer a function key belongs to: its module, with fourier split in two."""
    module, _, name = key.partition(".")
    if module != "fourier":
        return module
    if name.startswith("SpectralFunction.") or name in FOURIER_STORE:
        return "fourier.store"
    return "fourier.transforms"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _kfun_candidates(args, kwargs, _result):
    f = _arg(args, kwargs, 0, "f")
    delta = _arg(args, kwargs, 1, "delta")
    zetas = [1.0 - delta * 2.0**j for j in range(-2, 3)]
    return 2 + sum(0.0 <= z < 1.0 for z in zetas) + f.max_degree + 1


def _analyze_terms(args, kwargs, _result):
    degree = _arg(args, kwargs, 1, "max_degree")
    return (3 * degree * degree + 3 * degree + 1) * _arg(args, kwargs, 0, "g").grid.size


#: computed work counts: function key -> (stat name, count from call arguments)
WORK = {
    "kernels.bernstein_integral": ("grid_points", lambda a, kw, res: res.grid_n**2),
    "fourier.synthesize": (
        "terms",
        lambda a, kw, res: _arg(a, kw, 0, "f").support_size * _arg(a, kw, 1, "grid").size,
    ),
    "fourier.analyze": ("terms", _analyze_terms),
    "fourier.scale_shells": ("entries", lambda a, kw, res: _arg(a, kw, 0, "f").support_size),
    "fourier.SpectralFunction.items": ("entries", lambda a, kw, res: a[0].support_size),
    "means.lambda_complement": (
        "terms",
        lambda a, kw, res: max(0, _arg(a, kw, 0, "nu") - _arg(a, kw, 1, "r") + 1),
    ),
    "means.kfun_estimate": ("candidates", _kfun_candidates),
}


class Recorder:
    """Collects spans in memory; one recorder per step process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [key, parent index, start, end, work]
        self._stack: list[int] = []

    def _open(self, key: str) -> list:
        rec = [key, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, key: str, fn):
        work = WORK.get(key, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if work is not None:
                rec[4] = work(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, key: str):
        """Root span of one benchmark step."""
        rec = self._open(key)
        try:
            yield
        finally:
            self._close(rec)

    def summary(self) -> dict:
        """Per-function {calls, self_s, work} plus per-layer self time.

        Root spans (parent -1) are reported as ``roots`` with their wall
        time; what of it no wrapped function covered is in no layer.
        """
        child = [0.0] * len(self.spans)
        for key, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        funcs: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": 0})
        layers: dict[str, float] = defaultdict(float)
        roots: dict[str, float] = defaultdict(float)
        for i, (key, parent, start, end, work) in enumerate(self.spans):
            if parent < 0:
                roots[key] += end - start
                continue
            self_s = (end - start) - child[i]
            stats = funcs[key]
            stats["calls"] += 1
            stats["self_s"] += self_s
            stats["work"] += work
            layers[layer_of(key)] += self_s
        return {
            "functions": dict(funcs),
            "layers": dict(layers),
            "roots": dict(roots),
            "spans": len(self.spans),
        }


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == module.__name__:
            yield name, obj


def install(recorder: Recorder) -> int:
    """Wrap every public hexsum function and the listed methods; returns the count."""
    modules = {name: importlib.import_module(f"hexsum.{name}") for name in MODULES}
    namespaces = [
        vars(mod)
        for name, mod in sys.modules.items()
        if name == "hexsum" or name.startswith("hexsum.")
    ]
    count = 0
    for short, module in modules.items():
        for name, fn in list(_public_functions(module)):
            if f"{short}.{name}" in UNWRAPPED:
                continue
            wrapped = recorder.wrap(f"{short}.{name}", fn)
            for ns in namespaces:
                for attr, value in list(ns.items()):
                    if value is fn:
                        ns[attr] = wrapped
            count += 1
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                setattr(cls, meth, recorder.wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth]))
                count += 1
    return count
