"""Universality and renormalization experiments at desk scale.

An ExperimentPlan pins several model variants (differing by mollifier family
or by irrelevant perturbations) to a shared renormalization scheme, runs a
coupled solver ensemble along a decreasing nu schedule, and compares smeared
moment observables across variants.  Coupling means every (variant, nu) cell
consumes the same white-noise substreams per sample index, so cross-cell
gaps are paired differences with strongly reduced variance.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationFault
from .flow import flow_expected
from .lattice import SPACE_ONLY, Field, LatticeSpec, pair_with_test_function
from .model import ModelSpec, RenormScheme, relevant_filtered
from .noise import sample_macroscopic_noise
from .solver import (
    STATUS_BLEW_UP,
    SolveConfig,
    SolveResult,
    build_stationary_shift,
    solve_stack,
    solve_window,
)
from .solver import solve_decomposed  # noqa: F401  looked up here by perfbench/tracing.py

# samples solved together in one stack: bounds a cell's memory at any size
STACK_SIZE = 32


@dataclass(frozen=True)
class Observable:
    kind: str = "slice_moment"  # "slice_moment" | "slice_pairing" | "two_point"
    p: int = 2
    time: float = 0.5
    lag: tuple = ()

    def __post_init__(self):
        if self.kind not in ("slice_moment", "slice_pairing", "two_point"):
            raise ValidationFault(f"unknown observable kind {self.kind!r}")
        if self.kind == "slice_moment" and self.p not in (1, 2, 3, 4):
            raise ValidationFault("slice moments are supported for p in 1..4")

    @property
    def name(self) -> str:
        if self.kind == "slice_moment":
            return f"moment{self.p}@t{self.time:g}"
        if self.kind == "two_point":
            return f"twopoint{self.lag}@t{self.time:g}"
        return f"pairing@t{self.time:g}"


@dataclass(frozen=True)
class ExperimentPlan:
    variants: tuple  # ((label, ModelSpec), ...); each ModelSpec carries a NoiseModel
    nu_schedule: tuple
    samples: int
    n: int
    dt: float
    t_max: float
    observables: tuple = (Observable(),)
    scheme_values: tuple = ()  # ((i, m, a), anchor value) pairs shared by all variants
    counterterm_overrides: tuple = ()  # (label, ((key, value), ...)) forcing counterterms
    solve: SolveConfig = field(default_factory=SolveConfig)
    history: float = 2.0
    use_shift: bool = True
    coupling: bool = True
    flow_j_levels: int = 8
    flow_nodes_per_octave: int = 8

    def __post_init__(self):
        if len(self.variants) < 1:
            raise ValidationFault("plan needs at least one variant")
        if any(b >= a for a, b in zip(self.nu_schedule, self.nu_schedule[1:])):
            raise ValidationFault("nu schedule must be strictly decreasing")
        base = self.variants[0][1]
        for _, m in self.variants[1:]:
            if (m.d, m.sigma, m.dim_lambda) != (base.d, base.sigma, base.dim_lambda):
                raise ValidationFault("variants must share (d, sigma, dim_lambda)")
            if relevant_filtered(m) != relevant_filtered(base):
                raise ValidationFault("variants must share the relevant index set")
        t_need = max(o.time for o in self.observables)
        if t_need > self.t_max:
            raise ValidationFault("observable time exceeds the solve horizon")

    def lattice(self) -> LatticeSpec:
        base = self.variants[0][1]
        return LatticeSpec(base.d, self.n, self.dt, 0.0, self.t_max, base.sigma)


@dataclass
class ExperimentReport:
    cells: dict  # (label, nu, observable) -> {estimate, se, samples, blowups}
    gaps: dict  # (observable, nu) -> {labels, gap, se, samples}
    drifts: dict  # (label, observable) -> [(nu_hi, nu_lo, drift, se), ...]
    verdict: dict

    def rows(self):
        out = []
        for (label, nu, obs), cell in sorted(self.cells.items()):
            key = None
            for (o, n), g in self.gaps.items():
                if o == obs and n == nu:
                    key = g
            out.append(
                {
                    "variant": label,
                    "nu": nu,
                    "observable": obs,
                    "estimate": cell["estimate"],
                    "se": cell["se"],
                    "gap": key["gap"] if key else "",
                    "gap_se": key["se"] if key else "",
                    "verdict": self.verdict.get("label", ""),
                }
            )
        return out


def _observable_value(obs: Observable, result: SolveResult, psi: Field) -> float:
    spec = result.trajectory.spec
    j = int(round((obs.time - spec.t_min) / spec.dt))
    if result.status == STATUS_BLEW_UP and j >= result.trajectory.data.shape[0]:
        return np.nan
    slc = Field(psi.spec, result.trajectory.data[j], SPACE_ONLY)
    x = pair_with_test_function(slc, psi)
    if obs.kind == "slice_moment":
        return x**obs.p
    if obs.kind == "slice_pairing":
        return x
    lag = tuple(int(v) for v in obs.lag)
    rolled = Field(psi.spec, np.roll(slc.data, lag, tuple(range(len(lag)))), SPACE_ONLY)
    return pair_with_test_function(slc, rolled)


def _smearing_function(spec: LatticeSpec) -> Field:
    """Unit-mass smooth test function: 1 + cos(x_1), strictly local in
    frequency so smearing commutes with the resolved dynamics."""
    x = spec.coords()[0]
    data = 1.0 + np.cos(x)
    for _ in range(spec.d - 1):
        data = data[..., None] * np.ones(spec.n)
    return Field(spec, data, SPACE_ONLY)


def _cell_counterterms(plan: ExperimentPlan, label: str, model: ModelSpec, nu: float):
    for lab, entries in plan.counterterm_overrides:
        if lab == label:
            return {tuple(k): v for k, v in entries}
    scheme = RenormScheme.for_model(model, dict(plan.scheme_values))
    wick_spec = plan.lattice()
    _, ct = flow_expected(
        model,
        wick_spec,
        nu,
        scheme,
        j_levels=plan.flow_j_levels,
        nodes_per_octave=plan.flow_nodes_per_octave,
    )
    return ct.as_dict()


def _run_cell(plan: ExperimentPlan, label: str, model: ModelSpec, nu: float):
    """All per-sample observable values for one (variant, nu) cell.  The
    samples are solved in stacks of at most STACK_SIZE; of each sample's
    noise (or shift) only the slices inside the solve window are kept."""
    spec = plan.lattice()
    noise_model = model.noise.with_nu(nu)
    model = dataclasses.replace(model, noise=noise_model)
    cterms = _cell_counterterms(plan, label, model, nu)
    psi = _smearing_function(spec)
    zero = Field(spec, np.zeros(spec.space_shape()), SPACE_ONLY)
    values = {o.name: np.full(plan.samples, np.nan) for o in plan.observables}
    blowups = 0
    for first in range(0, plan.samples, STACK_SIZE):
        block = range(first, min(first + STACK_SIZE, plan.samples))
        windows = []
        for s in block:
            drive = sample_macroscopic_noise(noise_model, spec, s, history=plan.history)
            if plan.use_shift:
                drive = build_stationary_shift(model, cterms, drive)
            windows.append(solve_window(drive, spec, plan.solve).copy())
        kind = "shift" if plan.use_shift else "noise"
        results = solve_stack(model, cterms, zero, plan.solve, **{kind: np.stack(windows)})
        for s, res in zip(block, results):
            blowups += res.status == STATUS_BLEW_UP
            for o in plan.observables:
                values[o.name][s] = _observable_value(o, res, psi)
    return values, blowups


def _mean_se(values: np.ndarray) -> tuple:
    """Mean and standard error of a sample: NaN mean without a value and
    NaN error with fewer than two, without numpy's warnings."""
    k = values.size
    mean = float(np.mean(values)) if k else np.nan
    se = float(np.std(values, ddof=1) / np.sqrt(k)) if k > 1 else np.nan
    return mean, se


def run_universality(plan: ExperimentPlan) -> ExperimentReport:
    """Run every (variant, nu) cell, aggregate, and issue the verdict.

    Verdict "universal": at the final nu the cross-variant gap of every
    observable is <= 3 combined SE, and the gap magnitudes are non-increasing
    along the schedule (one SE-sized violation tolerated).
    """
    raw = {}
    cells = {}
    for label, model in plan.variants:
        for nu in plan.nu_schedule:
            values, blowups = _run_cell(plan, label, model, nu)
            for o in plan.observables:
                v = values[o.name]
                ok = np.isfinite(v)
                est, se = _mean_se(v[ok])
                raw[(label, nu, o.name)] = v
                cells[(label, nu, o.name)] = {
                    "estimate": est,
                    "se": se,
                    "samples": int(ok.sum()),
                    "blowups": blowups,
                }

    gaps = {}
    labels = [lab for lab, _ in plan.variants]
    if len(labels) >= 2:
        a, b = labels[0], labels[1]
        for o in plan.observables:
            for nu in plan.nu_schedule:
                va, vb = raw[(a, nu, o.name)], raw[(b, nu, o.name)]
                ok = np.isfinite(va) & np.isfinite(vb)
                gap, se = _mean_se(va[ok] - vb[ok])
                gaps[(o.name, nu)] = {"labels": (a, b), "gap": gap, "se": se, "samples": int(ok.sum())}

    drifts = {}
    for label in labels:
        for o in plan.observables:
            seq = []
            for nu_hi, nu_lo in zip(plan.nu_schedule, plan.nu_schedule[1:]):
                vh, vl = raw[(label, nu_hi, o.name)], raw[(label, nu_lo, o.name)]
                ok = np.isfinite(vh) & np.isfinite(vl)
                seq.append((nu_hi, nu_lo, *_mean_se(vl[ok] - vh[ok])))
            drifts[(label, o.name)] = seq

    verdict = {"label": "no_comparison", "universal": False}
    if gaps:
        universal = True
        details = {}
        for o in plan.observables:
            seq = [gaps[(o.name, nu)] for nu in plan.nu_schedule]
            final = seq[-1]
            mags = [abs(g["gap"]) for g in seq]
            violations = sum(
                1
                for g_prev, g_next, step in zip(mags, mags[1:], seq[1:])
                if g_next > g_prev + step["se"]
            )
            ok = abs(final["gap"]) <= 3.0 * final["se"] and violations <= 1
            universal = universal and ok
            details[o.name] = {
                "final_gap": final["gap"],
                "final_se": final["se"],
                "violations": violations,
                "pass": ok,
            }
            if final["samples"] < 2:
                details[o.name]["reason"] = (
                    f"{final['samples']} sample(s) finite in both variants at the "
                    "final nu: no standard error, so no comparison"
                )
        verdict = {
            "label": "universal" if universal else "distinct",
            "universal": universal,
            "observables": details,
        }
    # the choices behind the numbers: the gaps compare the first two
    # variants only, and each cell drops its non-finite samples
    verdict["compared"] = labels[:2] if gaps else []
    verdict["cells"] = [
        {
            "variant": label,
            "nu": nu,
            "observable": obs,
            "kept": c["samples"],
            "dropped": plan.samples - c["samples"],
        }
        for (label, nu, obs), c in cells.items()
    ]
    return ExperimentReport(cells, gaps, drifts, verdict)

