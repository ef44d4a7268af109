"""Span tracer for the traced benchmark run.

The package imports its functions by name (``from .noise import
sample_macroscopic_noise``), so a function is wrapped at every name through
which the workloads reach it: ``harness.sample_macroscopic_noise`` and
``noise.sample_macroscopic_noise`` are two patch points of one span.  Spans
and counts live in memory and are written out once the run ends.

A patch point that no longer exists (a later change removed or renamed the
function) is skipped; every metric fed by it is then reported as absent
while the rest of the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (owner, attribute, span, hook): the owner is "module" or "module:Class";
# span None marks a count-only patch point.
PATCH_POINTS = [
    ("flowpde.harness", "sample_macroscopic_noise", "noise.sample", None),
    ("flowpde.noise", "sample_macroscopic_noise", "noise.sample", None),
    ("flowpde.noise", "_spatial_multiplier", "noise.multiplier", None),
    ("flowpde.flow", "_spatial_multiplier", "noise.multiplier", None),
    ("flowpde.noise", "substream", None, "substream"),
    ("flowpde.noise", "white_noise_slab", None, "slab"),
    ("flowpde.harness", "flow_expected", "flow.expected", None),
    ("flowpde.flow", "flow_expected", "flow.expected", None),
    ("flowpde.flow:WickCalculator", "tadpole", "flow.wick", None),
    ("flowpde.flow:WickCalculator", "tadpole_derivative_half", "flow.wick", None),
    ("flowpde.flow", "expand_pathwise", "flow.expand", None),
    ("flowpde.harness", "solve_decomposed", "solver.solve", "solve"),
    ("flowpde.solver", "solve_with_patching", "solver.solve", "solve"),
    ("flowpde.solver", "build_stationary_shift", "solver.shift", None),
    ("flowpde.solver", "solve_mild", "solver.window", "window"),
    ("flowpde.solver", "evaluate_force", "model.force", None),
    ("flowpde.model", "relevant_filtered", "model.index_enum", None),
    ("flowpde.flow", "relevant_filtered", "model.index_enum", None),
    ("flowpde.flow", "convolve", "kernels.convolve", None),
    ("flowpde.kernels", "invariant_battery", "kernels.battery", None),
    ("flowpde.kernels", "dot_G_moment_norms", "kernels.moment_norms", None),
    ("flowpde.solver", "c_gamma_norm", "norms.c_gamma", None),
    ("flowpde.harness", "run_universality", "harness.run", None),
    ("flowpde.harness", "_run_cell", "harness.cell", "cell"),
    # the benchmark's own output step (FLD1 and CSV through lattice/csv)
    ("workloads", "write_outputs", "lattice.write", None),
]

LAYERS = ("noise", "flow", "solver", "model", "kernels", "norms", "harness", "lattice")

# timing metric -> span; reported as <metric>_p50 and <metric>_p90
TIMINGS = {
    "noise.sample_ms": "noise.sample",
    "noise.multiplier_ms": "noise.multiplier",
    "flow.expected_ms": "flow.expected",
    "flow.wick_ms": "flow.wick",
    "flow.expand_ms": "flow.expand",
    "solver.solve_ms": "solver.solve",
    "solver.shift_ms": "solver.shift",
    "model.force_us": "model.force",
    "model.index_enum_ms": "model.index_enum",
    "kernels.convolve_ms": "kernels.convolve",
    "kernels.battery_s": "kernels.battery",
    "kernels.moment_norms_s": "kernels.moment_norms",
    "norms.c_gamma_us": "norms.c_gamma",
    "harness.cell_s": "harness.cell",
    "lattice.write_ms": "lattice.write",
}

# call-count metric -> span
CALLS = {
    "noise.sample_calls": "noise.sample",
    "noise.multiplier_calls": "noise.multiplier",
    "flow.expected_calls": "flow.expected",
    "flow.wick_calls": "flow.wick",
    "model.force_calls": "model.force",
    "model.index_enum_calls": "model.index_enum",
    "kernels.convolve_calls": "kernels.convolve",
    "norms.c_gamma_calls": "norms.c_gamma",
}

# metric -> (unit, hooks or spans it needs)
DERIVED = {
    "noise.distinct_frac": ("ratio", ("substream",)),
    "noise.slab_mb": ("MB", ("slab",)),
    "solver.steps": ("count", ("window",)),
    "solver.windows": ("count", ("window", "solve")),
    "solver.step_us": ("us", ("window", "solver.solve")),
    "solver.blowups": ("count", ("solve",)),
    "harness.kept_frac": ("ratio", ("cell",)),
}

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _unit(metric: str) -> str:
    return metric.rsplit("_", 1)[1]


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for metric in TIMINGS:
        units[f"{metric}_p50"] = units[f"{metric}_p90"] = _unit(metric)
    units.update({metric: "count" for metric in CALLS})
    units.update({metric: unit for metric, (unit, _) in DERIVED.items()})
    units.update({f"{layer}.self_ms": "ms" for layer in LAYERS})
    units["trace.overhead"] = "ratio"
    return units


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """In-memory spans (name, start, end, parent, run id) and counts."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id, child seconds]
        self.counts = Counter()
        self.white_keys = set()
        self.run_id = ""
        self.missing = set()  # spans and hooks whose patch point is gone
        self._stack = []
        self._undo = []

    # -- patching -----------------------------------------------------------

    def install(self, points=PATCH_POINTS):
        for owner, attr, span, hook in points:
            target = _resolve(owner)
            fn = getattr(target, attr, None) if target is not None else None
            if not callable(fn):
                self.missing.update(x for x in (span, hook) if x)
                continue
            setattr(target, attr, self._wrap(fn, span, hook))
            self._undo.append((target, attr, fn))

    def uninstall(self):
        while self._undo:
            target, attr, fn = self._undo.pop()
            setattr(target, attr, fn)

    def _wrap(self, fn, span, hook):
        on_result = getattr(self, f"_hook_{hook}") if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a span called from a span of the same name (solve_decomposed
            # calling solve_with_patching) is part of the outer one
            if span is not None and self._stack and self.spans[self._stack[-1]][0] == span:
                return fn(*args, **kwargs)
            if span is None:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append([span, perf_counter(), 0.0, parent, self.run_id, 0.0])
                self._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    record = self.spans[index]
                    record[2] = perf_counter()
                    if parent >= 0:
                        self.spans[parent][5] += record[2] - record[1]
            if on_result is not None:
                try:
                    on_result(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.missing.add(hook)
            return result

        return wrapper

    # -- counts at the span boundaries ---------------------------------------

    def _hook_substream(self, args, kwargs, result):
        master_seed, sample_index, label = args[:3]
        if label == "white":
            self.counts["noise.white_slabs"] += 1
            self.white_keys.add((master_seed, sample_index))

    def _hook_slab(self, args, kwargs, result):
        self.counts["noise.slabs"] += 1
        self.counts["noise.slab_bytes"] += result.nbytes

    def _hook_solve(self, args, kwargs, result):
        self.counts["solver.solves"] += 1
        self.counts["solver.blowups"] += result.status == "blew_up"

    def _hook_window(self, args, kwargs, result):
        self.counts["solver.windows"] += 1
        self.counts["solver.steps"] += result.trajectory.data.shape[0] - 1

    def _hook_cell(self, args, kwargs, result):
        values, _ = result
        for v in values.values():
            self.counts["harness.kept"] += int(np.isfinite(v).sum())
            self.counts["harness.attempted"] += len(v)

    # -- reduction -----------------------------------------------------------

    def metrics(self, batches: int) -> tuple:
        """Per-layer metrics for `batches` traced batch jobs, and the names
        of the metrics whose patch points are missing.  Counts and self
        times are per batch job; timings are p50 and p90 over all spans."""
        durations = defaultdict(list)
        self_s = defaultdict(float)
        for name, start, end, _, _, child in self.spans:
            durations[name].append(end - start)
            self_s[name.split(".", 1)[0]] += end - start - child
        units = metric_units()
        out, absent = {}, []

        def put(metric, value, needs):
            if any(x in self.missing for x in needs):
                absent.append(metric)
            else:
                out[metric] = {"value": float(value), "unit": units[metric]}

        for metric, span in TIMINGS.items():
            vals = durations.get(span) or [0.0]
            p50, p90 = np.percentile(vals, [50, 90]) * _SCALE[_unit(metric)]
            put(f"{metric}_p50", p50, (span,))
            put(f"{metric}_p90", p90, (span,))
        for metric, span in CALLS.items():
            put(metric, len(durations.get(span, ())) / batches, (span,))

        c = self.counts
        steps = c["solver.steps"]
        derived = {
            "noise.distinct_frac": len(self.white_keys) / max(c["noise.white_slabs"], 1),
            "noise.slab_mb": c["noise.slab_bytes"] / max(c["noise.slabs"], 1) / 1e6,
            "solver.steps": steps / batches,
            "solver.windows": c["solver.windows"] / max(c["solver.solves"], 1),
            "solver.step_us": self_s["solver"] / max(steps, 1) * 1e6,
            "solver.blowups": c["solver.blowups"] / batches,
            "harness.kept_frac": c["harness.kept"] / max(c["harness.attempted"], 1),
        }
        for metric, (_, needs) in DERIVED.items():
            put(metric, derived[metric], needs)
        for layer in LAYERS:
            put(f"{layer}.self_ms", self_s[layer] / batches * 1e3, ())
        return out, absent

    def write(self, path):
        """One JSON line per span; times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, run_id, _ in self.spans:
                row = {"name": name, "start": start - t0, "end": end - t0,
                       "parent": parent, "run": run_id}
                fh.write(json.dumps(row) + "\n")
