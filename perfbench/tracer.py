"""Span tracer for the traced run: wraps the public functions of each layer.

A layer is a module of the package.  Each wrapped function records one span
per call (name, start, end, parent) in memory; spans are aggregated and
written out when the run ends.  ``from .x import f`` copies the reference
into the importing module, so every wrapper is installed on every module
that binds the original object, and removed from all of them again.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "diracpl"
# (module, attribute path) of every wrapped function, in report order.
TARGETS = (
    ("orthopoly", "laguerre_all"),
    ("orthopoly", "hyp_mp_series"),
    ("orthopoly", "mod_cdh_series"),
    ("quadrature", "gauss_laguerre"),
    ("forms", "integrate_product"),
    ("forms", "LaguerreForm.eval"),
    ("forms", "LaguerreForm.d_dr"),
    ("basis", "select_representation"),
    ("basis", "phi_plus_form"),
    ("basis", "phi_minus_form"),
    ("wave_operator", "matrix_element_numeric"),
    ("wave_operator", "matrix_element_analytic"),
    ("recursion", "closed_form_sequence"),
    ("recursion", "solve_forward"),
    ("recursion", "rescale"),
    ("solution", "assemble"),
    ("solution", "weak_form_residual"),
    ("solution", "dirac_residual"),
    ("solution", "residual_scale"),
    ("solution", "second_order_residual"),
    ("cli", "main"),
    ("cli", "run_verify_checks"),
)
MODULES = tuple(dict.fromkeys(module for module, _ in TARGETS))
NAMES = tuple(f"{module}.{attr}" for module, attr in TARGETS)
COUNTERS = ("quadrature.nodes_built", "orthopoly.laguerre_values", "orthopoly.series_terms")


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


# Work done by one call, read from its arguments: (counter, amount).
_WORK = {
    "quadrature.gauss_laguerre":
        lambda a, k: ("quadrature.nodes_built", int(_arg(a, k, 0, "order"))),
    "orthopoly.laguerre_all":
        lambda a, k: ("orthopoly.laguerre_values",
                      (int(_arg(a, k, 0, "n")) + 1) * int(np.size(_arg(a, k, 2, "x")))),
    "orthopoly.hyp_mp_series":
        lambda a, k: ("orthopoly.series_terms", int(_arg(a, k, 0, "n"))),
    "orthopoly.mod_cdh_series":
        lambda a, k: ("orthopoly.series_terms", int(_arg(a, k, 0, "n"))),
}


class Tracer:
    """Records a span for every call of the TARGETS functions while installed.

    ``op`` tags the spans with the index of the op that caused them."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.op_index = array("i")
        self.errors = dict.fromkeys(NAMES, 0)
        self.work = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self.op = 0

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [mod for name, mod in list(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for name_id, (module, attr) in enumerate(TARGETS):
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            wrapper = self._wrap(original, name_id, _WORK.get(NAMES[name_id]))
            self._set(owner, leaf, wrapper)
            if path:
                continue  # a method is bound once, on its class
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name_id: int, work):
        name = NAMES[name_id]
        stack, name_ids, parents = self._stack, self.name_ids, self.parents
        starts, ends, op_index = self.starts, self.ends, self.op_index

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                counter, amount = work(args, kwargs)
                self.work[counter] += amount
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            op_index.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    # -- aggregation ----------------------------------------------------------

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op calls, self time and total time of every function, module
        rollups of self time and errors, and the work counts."""
        count = len(self.starts)
        names = np.frombuffer(self.name_ids, dtype=np.int32, count=count)
        parents = np.frombuffer(self.parents, dtype=np.int32, count=count)
        dur = (np.frombuffer(self.ends, dtype=np.float64, count=count)
               - np.frombuffer(self.starts, dtype=np.float64, count=count))
        child = np.zeros(count)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(names, minlength=len(NAMES))
        total_s = np.bincount(names, weights=dur, minlength=len(NAMES))
        self_s = np.bincount(names, weights=self_time, minlength=len(NAMES))

        out: dict[str, float] = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[i] / n_ops
            out[f"{name}.self_s"] = self_s[i] / n_ops
            out[f"{name}.total_s"] = total_s[i] / n_ops
        for module in MODULES:
            members = [i for i, (mod, _) in enumerate(TARGETS) if mod == module]
            out[f"{module}.self_s"] = float(sum(self_s[i] for i in members)) / n_ops
            out[f"{module}.errors"] = sum(self.errors[NAMES[i]] for i in members) / n_ops
        for counter, amount in self.work.items():
            out[counter] = amount / n_ops
        integrals = calls[NAMES.index("forms.integrate_product")]
        built_inside = self._calls_under("quadrature.gauss_laguerre", "forms.integrate_product")
        out["forms.rule_miss_ratio"] = built_inside / integrals if integrals else 0.0
        return {key: float(value) for key, value in out.items()}

    def _calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` with a span of ``ancestor`` somewhere above them."""
        target, above = NAMES.index(name), NAMES.index(ancestor)
        found = 0
        for idx in np.flatnonzero(np.frombuffer(self.name_ids, dtype=np.int32) == target):
            parent = self.parents[idx]
            while parent >= 0 and self.name_ids[parent] != above:
                parent = self.parents[parent]
            found += parent >= 0
        return found

    def root_time(self) -> float:
        """Summed duration of spans that have no traced parent."""
        return sum(self.ends[i] - self.starts[i]
                   for i in range(len(self.starts)) if self.parents[i] < 0)

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: op, name, start, end, parent row."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,name,start,end,parent\n")
            for i in range(len(self.starts)):
                fh.write(f"{self.op_index[i]},{NAMES[self.name_ids[i]]},"
                         f"{self.starts[i]:.9f},{self.ends[i]:.9f},{self.parents[i]}\n")
