"""Universality and renormalization experiments at desk scale.

An ExperimentPlan pins several model variants (differing by mollifier family
or by irrelevant perturbations) to a shared renormalization scheme, runs a
coupled solver ensemble along a decreasing nu schedule, and compares smeared
moment observables across variants.  Coupling means every (variant, nu) cell
consumes the same white-noise substreams per sample index, so cross-cell
gaps are paired differences with strongly reduced variance.

Every cell runs the direct solve, solver.solve_stack on its noise, at any
stationary order i_rhd.  Where cells are driven by mollified white noise W,
they share W itself: per sample index and master seed, only the blocks of W
that cover the tail the solve windows read are drawn, and that tail is
transformed once (noise.white_spectrum), padded for the taps of the plan's
largest nu; each cell takes its solve window from that spectrum through its
own multiplier (noise.SpectralDriver), as the half spectrum the solver
reads.  W's slices do not depend on the history, which only sets how far
back the window reaches.  Shot noise
samples and cuts each cell's window on its own, and hands its
window_spectrum to the solver.

A run builds every cell's driver first, then one flow.flow_stack for the
counterterms of all cells without counterterm_overrides, then solves block
by block.  The cells share the lattice and the SolveConfig, so all cells
whose forces have the same terms, with their own coefficients, solve a
block as one solver.solve_stack.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationFault
from .flow import flow_stack
from .flow import flow_expected  # noqa: F401  looked up here by perfbench/tracing.py
from .lattice import SPACE_ONLY, Field, LatticeSpec, check_whole_steps, pair_with_test_function
from .model import ModelSpec, RenormScheme, compile_force, relevant_filtered
from .noise import SpectralDriver, extended_window, resolution, sample_macroscopic_noise, spectral_driver
from .solver import (
    STATUS_BLEW_UP,
    SolveConfig,
    SolveResult,
    solve_stack,
    window_slices,
    window_spectrum,
)
from .solver import solve_mild as solve_decomposed  # noqa: F401  looked up here by perfbench/tracing.py

# rows per block: a block holds STACK_SIZE // cells samples (at least one)
# of every cell, its solve windows as half spectra of n // 2 + 1 modes per
# slice, so each sample's white spectrum is built once for all cells; one
# stepping loop runs over about STACK_SIZE rows, and the memory of a run
# stays bounded at any size
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
    flow_j_levels: int = 8
    flow_nodes_per_octave: int = 8

    def __post_init__(self):
        for name in ("variants", "nu_schedule", "observables"):
            if not getattr(self, name):
                raise ValidationFault(f"plan needs at least one entry in plan.{name}")
        labels = [label for label, _ in self.variants]
        for label in labels:
            if labels.count(label) > 1:
                raise ValidationFault(f"plan.variants lists the label {label!r} more than once")
        for name in ("samples", "flow_j_levels", "flow_nodes_per_octave"):
            if getattr(self, name) < 1:
                raise ValidationFault(f"plan.{name} must be at least 1, got {getattr(self, name)}")
        if not (np.isfinite(self.history) and self.history >= 0.0):
            raise ValidationFault(f"plan.history must be finite and non-negative, got {self.history}")
        if any(b >= a for a, b in zip(self.nu_schedule, self.nu_schedule[1:])):
            raise ValidationFault("nu schedule must be strictly decreasing")
        base = self.variants[0][1]
        for _, m in self.variants[1:]:
            if (m.d, m.sigma, m.dim_lambda) != (base.d, base.sigma, base.dim_lambda):
                raise ValidationFault("variants must share (d, sigma, dim_lambda)")
            if relevant_filtered(m) != relevant_filtered(base):
                raise ValidationFault("variants must share the relevant index set")
        horizon = min(self.t_max, self.solve.max_horizon)
        self.lattice()  # dt checked before a time is divided by it
        check_whole_steps(horizon, self.dt, f"the solve horizon min(max_horizon, t_max) = {horizon:g}")
        for o in self.observables:
            if not 0.0 <= o.time <= horizon:
                raise ValidationFault(f"observable time {o.time:g} not in the horizon [0, {horizon:g}]")
            check_whole_steps(o.time, self.dt, f"observable time {o.time:g}")
            if len(o.lag) > base.d:
                raise ValidationFault(f"two_point lag {list(o.lag)} has more entries than d = {base.d}")

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
            key = self.gaps.get((obs, nu))
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


class _Cell(NamedTuple):
    """One (variant, nu) cell: its model at nu, its counterterms and, when
    it is driven by mollified white noise, its SpectralDriver, built for the
    plan's solve window and padded for the plan's largest nu, so all cells
    of one master seed share its spectrum (None: shot noise, sampled and
    cut by window_spectrum per sample)."""

    label: str
    nu: float
    model: ModelSpec
    cterms: dict
    driver: SpectralDriver | None


def _make_cells(plan: ExperimentPlan) -> list:
    """The plan's (variant, nu) cells, variant-major: all drivers first,
    then one flow_stack for the cells without counterterm_overrides."""
    pairs = reversed(plan.counterterm_overrides)  # the first override of a label wins
    overrides = {lab: {tuple(k): v for k, v in entries} for lab, entries in pairs}
    spec = plan.lattice()
    ext = extended_window(spec, plan.history)
    reads = window_slices(ext, spec, plan.solve)
    made = []
    for (label, base), nu in itertools.product(plan.variants, plan.nu_schedule):
        model = dataclasses.replace(base, noise=base.noise.with_nu(nu))
        driver = None
        if model.noise.kind == "mollified_white":
            driver = spectral_driver(model.noise, spec, plan.history, reads, max(plan.nu_schedule))
        made.append(_Cell(label, nu, model, overrides.get(label), driver))
    anchors = dict(plan.scheme_values)
    flowed = [c for c in made if c.cterms is None]
    cells = [(c.model, c.nu, RenormScheme.for_model(c.model, anchors)) for c in flowed]
    results = flow_stack(plan.lattice(), cells, plan.flow_j_levels, plan.flow_nodes_per_octave)
    cterms = iter(ct.as_dict() for _, ct in results)
    return [c if c.cterms is not None else c._replace(cterms=next(cterms)) for c in made]


def _drive_window(plan: ExperimentPlan, cell: _Cell, sample: int, spectra: dict) -> np.ndarray:
    """The half spectrum of the solve window of one sample's noise, as
    solve_stack reads it.  A driver reads the sample's white spectrum from
    `spectra`, adding it on first use, so cells that share a master seed
    share one transform of W."""
    spec = plan.lattice()
    if cell.driver is None:
        drive = sample_macroscopic_noise(cell.model.noise, spec, sample, history=plan.history)
        return window_spectrum(drive, spec, plan.solve)
    key = cell.driver.key
    if key not in spectra:
        spectra[key] = cell.driver.spectrum(sample)
    return cell.driver.window(spectra[key])


def _block_windows(plan: ExperimentPlan, cells: list, block: range) -> np.ndarray:
    """The drive windows of a block of samples, (cells, samples, slices, n,
    ..., n // 2 + 1), sample-major: each sample's white spectrum is built
    once per master seed and freed before the block is solved."""
    stacks = None
    for i, sample in enumerate(block):
        spectra = {}
        for row, cell in enumerate(cells):
            window = _drive_window(plan, cell, sample, spectra)
            if stacks is None:
                stacks = np.empty((len(cells), len(block), *window.shape), dtype=complex)
            stacks[row, i] = window
    return stacks


def _run_cell(plan: ExperimentPlan, results: list) -> tuple:
    """Observable values and blow-up count of one cell's block of samples,
    from their solve results."""
    psi = _smearing_function(plan.lattice())
    values = {
        o.name: np.array([_observable_value(o, res, psi) for res in results])
        for o in plan.observables
    }
    return values, sum(res.status == STATUS_BLEW_UP for res in results)


def _run_cells(plan: ExperimentPlan, cells: list) -> list:
    """(values, blow-ups) per cell: the per-sample observable values and
    the blow-up count, solved in blocks of STACK_SIZE rows (samples x
    cells, at least one sample).  Cells whose forces have the same terms
    (m, a) form a group, which solves its block as one stack, from rows
    laid out group by group."""
    spec = plan.lattice()
    zero = Field(spec, np.zeros(spec.space_shape()), SPACE_ONLY)
    groups = {}
    for c, cell in enumerate(cells):
        terms = compile_force(cell.model, cell.cterms, cell.nu, spec).shape
        groups.setdefault(terms, []).append(c)
    values = [{o.name: np.full(plan.samples, np.nan) for o in plan.observables} for _ in cells]
    blowups = [0] * len(cells)
    per_block = max(STACK_SIZE // len(cells), 1)
    for first in range(0, plan.samples, per_block):
        block = range(first, min(first + per_block, plan.samples))
        stacks = _block_windows(plan, [cells[c] for members in groups.values() for c in members], block)
        lo = 0
        for members in groups.values():
            rows = stacks[lo : lo + len(members)].reshape(-1, *stacks.shape[2:])
            forces = [(cells[c].model, cells[c].cterms) for c in members]
            results = solve_stack(forces, zero, plan.solve, noise=rows)
            for q, c in enumerate(members):
                block_values, block_blowups = _run_cell(plan, results[q * len(block) : (q + 1) * len(block)])
                blowups[c] += block_blowups
                for name, v in block_values.items():
                    values[c][name][block.start : block.stop] = v
            lo += len(members)
    return list(zip(values, blowups))


def _mean_se(values: np.ndarray) -> tuple:
    """Mean and standard error of a sample: NaN mean without a value and
    NaN error with fewer than two, without numpy's warnings."""
    k = values.size
    mean = float(np.mean(values)) if k else np.nan
    se = float(np.std(values, ddof=1) / np.sqrt(k)) if k > 1 else np.nan
    return mean, se


def _paired(a: np.ndarray, b: np.ndarray) -> tuple:
    """_mean_se of a - b over the samples finite in both, and their count."""
    ok = np.isfinite(a) & np.isfinite(b)
    return (*_mean_se(a[ok] - b[ok]), int(ok.sum()))


def run_universality(plan: ExperimentPlan) -> ExperimentReport:
    """Run every (variant, nu) cell, aggregate, and issue the verdict.

    Verdict "universal": at the final nu the cross-variant gap of every
    observable is <= 3 combined SE, and the gap magnitudes are non-increasing
    along the schedule (one SE-sized violation tolerated).

    The verdict (the CLI's verdict.json) also says what was compared:
    `compared` names the two variants of the gaps, and each entry of
    `cells`, one per (variant, nu, observable), gives the samples kept and
    dropped (non-finite) and the lattice's resolution at nu
    (noise.resolution): dx_over_scale = dx/[nu], dt_over_nu = dt/nu, and
    strict_resolution, whether the strict policy would pass whatever
    policy the variant runs under.
    """
    raw = {}
    cells = {}
    runs = _make_cells(plan)
    for cell, (values, blowups) in zip(runs, _run_cells(plan, runs)):
        for o in plan.observables:
            v = values[o.name]
            ok = np.isfinite(v)
            est, se = _mean_se(v[ok])
            raw[(cell.label, cell.nu, o.name)] = v
            cells[(cell.label, cell.nu, o.name)] = {
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
                gap, se, k = _paired(raw[(a, nu, o.name)], raw[(b, nu, o.name)])
                gaps[(o.name, nu)] = {"labels": (a, b), "gap": gap, "se": se, "samples": k}

    drifts = {}
    for label in labels:
        for o in plan.observables:
            seq = []
            for nu_hi, nu_lo in zip(plan.nu_schedule, plan.nu_schedule[1:]):
                drift, se, _ = _paired(raw[(label, nu_lo, o.name)], raw[(label, nu_hi, o.name)])
                seq.append((nu_hi, nu_lo, drift, se))
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
    spec = plan.lattice()
    verdict["cells"] = [
        {
            "variant": label,
            "nu": nu,
            "observable": obs,
            "kept": c["samples"],
            "dropped": plan.samples - c["samples"],
            **resolution(nu, spec),
        }
        for (label, nu, obs), c in cells.items()
    ]
    return ExperimentReport(cells, gaps, drifts, verdict)

