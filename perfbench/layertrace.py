"""Traced run: spans around the calls into each layer, recorded from outside.

`Tracer.installed` swaps, for the length of a `with` block, every function
that `wsdlab.cli` or a layer module imports from another layer for a wrapper
that records a span; the program's source stays as it is. Calls inside one
module are not wrapped, so their time counts toward the caller's span. Spans
stay in memory until `write` saves them at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

LAYERS = ("polytope", "ambient", "reduction", "maps", "metgeo")
_LAYER_OF = {f"wsdlab.{layer}": layer for layer in LAYERS}

# the public functions whose calls and self time are reported, by layer
FUNCTIONS = {
    "polytope": ("lattice_maps", "smith_normal_form", "has_property_sd",
                 "verify_duality_identities", "kernel_data"),
    "ambient": ("exterior_derivative_residual", "ambient_tensors_at",
                "auxiliary_vectors", "leaf_volume"),
    "reduction": ("sample_points", "sample_base", "induced_structure_at",
                  "verify_wsd_axioms", "omega_d_degenerate_block"),
    "maps": ("project_pi1", "project_pi2", "pi2_image_residual", "alpha_deform"),
    "metgeo": ("flat_torus_diameter", "pi1_fiber_torus", "pi2_fiber_torus",
               "riemannian_knn_distances", "ngh_distance", "fs_matrix", "hn_matrix",
               "anticanonical_sample", "hausdorff_from_cross"),
}

SAMPLERS = ("reduction.sample_points", "reduction.sample_base")
DISTANCE_KERNELS = ("metgeo.fs_matrix", "metgeo.hn_matrix",
                    "metgeo.riemannian_knn_distances")

# work a call carries, read from its arguments: points sampled, or the N x M
# distance entries a kernel computes
WORK = {
    "reduction.sample_points": lambda spec, count, seed=0: count,
    "reduction.sample_base": lambda spec, count, seed=0, retries=40: count,
    "metgeo.fs_matrix": lambda z, rho, w=None: len(z) * len(z if w is None else w),
    "metgeo.hn_matrix": lambda z, rho, n, w=None: len(z) * len(z if w is None else w),
    "metgeo.riemannian_knn_distances":
        lambda points, metric_at, k=12, periodic=None: len(points) ** 2,
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name a traced run reports, with its unit."""
    units = {}
    for layer, names in FUNCTIONS.items():
        for fn in names:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    for layer in LAYERS + ("cli",):
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update({
        "reduction.sampler.us_per_point": "us",
        "metgeo.covering.ms_per_call": "ms",
        "metgeo.distance_entries": "count",
        "metgeo.ngh_width_mean": "1",
        "trace.pass_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


class Tracer:
    """Spans in memory: [name, start, end, parent index, pass id, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.passes = 0

    def call(self, name: str, fn, args=(), kwargs=None, work: int = 0):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.passes, work]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def run_pass(self, fn):
        """Run one pass `fn()` under a root span `cli.pass`.

        Returns the pass's result and its duration in seconds."""
        self.passes += 1
        root = len(self.spans)
        value = self.call("cli.pass", fn)
        return value, self.spans[root][2] - self.spans[root][1]

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work(*args, **kwargs) if work else 0)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every cross-layer binding in `wsdlab.cli` and the layer modules."""
        wrappers, saved = {}, []
        for here in ("cli",) + LAYERS:
            module = importlib.import_module(f"wsdlab.{here}")
            for attr, obj in list(vars(module).items()):
                layer = _LAYER_OF.get(getattr(obj, "__module__", None))
                if layer in (None, here) or isinstance(obj, type) or not callable(obj):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(layer, obj)
                saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        try:
            yield
        finally:
            for module, attr, obj in saved:
                setattr(module, attr, obj)

    def totals(self):
        """Per-name call counts, self seconds and work, summed over all passes."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, work = Counter(), defaultdict(float), Counter()
        for i, (name, start, end, _, _, units) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            work[name] += units
        return calls, self_s, work

    def metrics(self, plain_pass_s: float, ngh_widths: list[float]) -> dict[str, float]:
        """Per-pass means of every metric in `metric_units`."""
        calls, self_s, work = self.totals()
        n = self.passes
        pass_s = sum(end - start for name, start, end, *_ in self.spans
                     if name == "cli.pass") / n
        out = {}
        for layer, names in FUNCTIONS.items():
            for fn in names:
                out[f"{layer}.{fn}.calls"] = calls[f"{layer}.{fn}"] / n
                out[f"{layer}.{fn}.self_s"] = self_s[f"{layer}.{fn}"] / n
        for layer in LAYERS + ("cli",):
            layer_s = sum(v for k, v in self_s.items() if k.split(".")[0] == layer) / n
            out[f"{layer}.self_s"] = layer_s
            out[f"{layer}.share"] = layer_s / pass_s
        points = sum(work[k] for k in SAMPLERS)
        out["reduction.sampler.us_per_point"] = (
            1e6 * sum(self_s[k] for k in SAMPLERS) / points if points else 0.0)
        covering = calls["metgeo.flat_torus_diameter"]
        out["metgeo.covering.ms_per_call"] = (
            1e3 * self_s["metgeo.flat_torus_diameter"] / covering if covering else 0.0)
        out["metgeo.distance_entries"] = sum(work[k] for k in DISTANCE_KERNELS) / n
        out["metgeo.ngh_width_mean"] = (
            sum(ngh_widths) / len(ngh_widths) if ngh_widths else 0.0)
        out["trace.pass_s"] = pass_s
        out["trace.overhead_ratio"] = pass_s / plain_pass_s
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "pass", "work"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
