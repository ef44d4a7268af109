"""The benchmark's three workloads.

Each workload is a batch job run in a closed loop by one client: the next
batch starts only after the previous one has finished.  The seed sets every
NoiseModel.master_seed; the program receives only the plans, models and
lattices built here.

Program functions are called through their module (``flow.flow_expected``),
never bound to a local name, so that the traced run's wrappers see the
calls.  Correctness checks use properties that any correct version of the
program keeps, never byte images of the outputs.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import shutil
from pathlib import Path

import numpy as np

from flowpde import flow, harness, kernels, lattice, noise, solver
from flowpde.errors import NumericalFault
from flowpde.lattice import SPACE_ONLY, Field, LatticeSpec
from flowpde.model import RenormScheme, coefficient_value, preset

LINEAR_KEY = (1, 1, ((0,),))
# ensemble batch b drives its noise with master_seed = seed + b * SEED_STRIDE
SEED_STRIDE = 1_000_003
OUTPUT_FILES = ("trajectory.fld", "norms.csv")


@dataclasses.dataclass
class Batch:
    """Outcome of one batch job.  `ops` are solves or identity checks."""

    ops: int
    failed: int
    digest: str
    seconds: float = 0.0
    notes: list = dataclasses.field(default_factory=list)  # (label, ok, detail)
    files: tuple = ()  # written outputs the untimed finish step digests


def digest_of(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.asarray(part, dtype="<f8").tobytes())
    return h.hexdigest()


def _mollified(nu: float, seed: int, family: str = "bump") -> noise.NoiseModel:
    return noise.NoiseModel("mollified_white", nu, seed, family, resolution_policy="spectral")


def _flow_vs_wick(model, spec: LatticeSpec, nu: float, **quadrature):
    """Flow counterterm of the linear index, its Wick reference
    anchor - 3 c_3 C(1), and the flow's own quadrature defect."""
    scheme = RenormScheme.for_model(model)
    _, ct = flow.flow_expected(model, spec, nu, scheme, **quadrature)
    c3 = next(coefficient_value(model, m, nu) for m in model.monomials if (m.i, m.m) == (1, 3))
    tadpole = flow.WickCalculator(spec, model.noise.with_nu(nu)).tadpole(1.0)
    ref = scheme.as_dict()[LINEAR_KEY] - 3.0 * c3 * tadpole
    value = float(ct.entries[LINEAR_KEY])
    return value, abs(value - ref) / abs(ref), float(ct.diagnostics["quad_error"][LINEAR_KEY])


def _read(path: Path) -> bytes:
    """A written output, or b"" where a failed solve wrote none."""
    return path.read_bytes() if path.exists() else b""


def write_outputs(out: Path, res) -> None:
    """trajectory.fld and norms.csv in the format `flowpde simulate` writes."""
    trajectory, norms = (out / name for name in OUTPUT_FILES)
    lattice.write_fld1(trajectory, res.trajectory)
    tspec = res.trajectory.spec
    with open(norms, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "c_gamma_norm", "status"])
        for j, v in enumerate(res.slice_norms):
            w.writerow([repr(float(tspec.t_min + j * tspec.dt)), repr(float(v)), res.status])


class Ensemble:
    """Criterion 7's coupled universality plan: two mollifier families, three
    nu, shift path.  Per batch: the flow once per cell, then noise, shift,
    solve and observable per sample."""

    name = "ensemble"
    samples_per_cell = 4

    def __init__(self, seed: int, smoke: bool, out: Path):
        self.seed = seed
        self.smoke = smoke
        self.plan0 = self.plan(0)

    def plan(self, batch: int) -> harness.ExperimentPlan:
        master_seed = self.seed + SEED_STRIDE * batch
        if self.smoke:
            n, dt, t_max, nus, samples = 64, 0.0025, 0.25, (0.2, 0.1), 2
        else:
            n, dt, t_max, nus, samples = 256, 0.0025, 0.5, (0.2, 0.1, 0.05), self.samples_per_cell

        def variant(family):
            return (family, preset("phi4_desk", lam=0.3, noise=_mollified(0.2, master_seed, family)))

        return harness.ExperimentPlan(
            variants=(variant("bump"), variant("skew")),
            nu_schedule=nus,
            samples=samples,
            n=n,
            dt=dt,
            t_max=t_max,
            observables=(harness.Observable("slice_moment", p=2, time=t_max),),
            solve=solver.SolveConfig(
                scheme="etd1", blow_up_radius=50.0, max_horizon=t_max, t_local=t_max
            ),
            history=2.0,
            flow_j_levels=8,
            flow_nodes_per_octave=8,
        )

    def prepare(self, batch: int):
        return self.plan(batch)

    def run(self, plan) -> Batch:
        ops = len(plan.variants) * len(plan.nu_schedule) * plan.samples
        try:
            report = harness.run_universality(plan)
        except NumericalFault as exc:
            return Batch(ops, ops, "", notes=[("batch", False, f"numerical fault: {exc}")])
        cells = [report.cells[k] for k in sorted(report.cells)]
        # a blown-up sample is non-finite unless it blew up on the last step
        failed = sum(max(c["blowups"], plan.samples - c["samples"]) for c in cells)
        estimates = [c["estimate"] for c in cells]
        finite = all(np.isfinite(e) for e in estimates)
        digest = digest_of(estimates, [c["se"] for c in cells])
        return Batch(ops, failed, digest, notes=[("cell estimates finite", finite, f"{len(cells)} cells")])

    def finish(self, batch: Batch) -> None:
        pass

    def checks(self):
        """Each cell's counterterm against anchor - 3 c_3 C(1).  At the
        plan's 8 x 8 flow nodes the measured defect is at most 7e-4."""
        plan, out, values = self.plan0, [], []
        for family, model in plan.variants:
            for nu in plan.nu_schedule:
                cell_model = dataclasses.replace(model, noise=model.noise.with_nu(nu))
                value, rel, defect = _flow_vs_wick(
                    cell_model,
                    plan.lattice(),
                    nu,
                    j_levels=plan.flow_j_levels,
                    nodes_per_octave=plan.flow_nodes_per_octave,
                )
                values.append(value)
                detail = f"rel err {rel:.2e} <= 1e-3, flow quad_error {defect:.2e}"
                out.append((f"counterterm {family} nu={nu} vs Wick tadpole", rel <= 1e-3, detail))
        return out, digest_of(values)


class Simulate:
    """The direct (no-shift) path of `flowpde simulate`: counterterms once
    per batch, then per sample noise, solve (etd_rk2, dealiased, four
    patching windows) and the trajectory and norms files."""

    name = "simulate"
    samples = 8

    def __init__(self, seed: int, smoke: bool, out: Path):
        self.noise_model = _mollified(0.1, seed)
        self.model = preset("phi4_desk", lam=0.3, noise=self.noise_model)
        if smoke:
            self.spec, self.samples = LatticeSpec(1, 64, 0.01, 0.0, 0.5, 0.5), 2
        else:
            self.spec = LatticeSpec(1, 256, 0.0025, 0.0, 1.0, 0.5)
        self.scheme = RenormScheme.for_model(self.model)
        self.cfg = solver.SolveConfig()
        self.zero = Field(self.spec, np.zeros(self.spec.space_shape()), SPACE_ONLY)
        self.out = out
        self.jobs = 0
        self.first = None  # (sample index, directory) of the first batch's first sample

    def prepare(self, batch: int):
        self.jobs += 1
        out = self.out / f"job{self.jobs}"
        first = batch * self.samples
        dirs = [out / f"sample{s}" for s in range(first, first + self.samples)]
        for d in dirs:
            d.mkdir(parents=True)
        return out, list(zip(range(first, first + self.samples), dirs))

    def _pipeline(self, ct, sample: int, out: Path) -> bool:
        try:
            xi = noise.sample_macroscopic_noise(self.noise_model, self.spec, sample, history=2.0)
            res = solver.solve_with_patching(self.model, ct, xi, self.zero, self.cfg)
        except NumericalFault:
            return False
        write_outputs(out, res)
        return res.status == solver.STATUS_COMPLETED and bool(np.all(np.isfinite(res.trajectory.data)))

    def _counterterms(self):
        return flow.flow_expected(self.model, self.spec, self.noise_model.nu, self.scheme)[1]

    def run(self, job) -> Batch:
        out, samples = job
        ct = self._counterterms()
        ok = [self._pipeline(ct, s, d) for s, d in samples]
        note = ("completed with finite trajectory", all(ok), f"{len(ok)} samples")
        ct_values = [float(v) for v in ct.as_dict().values()]
        return Batch(len(ok), ok.count(False), "", notes=[note], files=(out, samples, ct_values))

    def finish(self, batch: Batch) -> None:
        """Digest the written files, outside the timed body; keep the first
        batch's files for the replay check."""
        out, samples, ct = batch.files
        files = [_read(d / name) for _, d in samples for name in OUTPUT_FILES]
        batch.digest = digest_of(ct, *files)
        if self.first is None:
            self.first = samples[0]
        else:
            shutil.rmtree(out)

    def checks(self):
        """Criterion 8's property: solving one sample again gives identical
        bytes."""
        sample, first_dir = self.first
        again = self.out / "replay"
        again.mkdir()
        self._pipeline(self._counterterms(), sample, again)
        same = all(_read(again / name) == _read(first_dir / name) != b"" for name in OUTPUT_FILES)
        return [(f"replay of sample {sample} byte-identical", same, ", ".join(OUTPUT_FILES))], ""


def _taylor_kernel(n: int) -> flow.CoefKernel:
    """Criterion 2's smooth arity-1 kernel."""
    spec = LatticeSpec(1, n, 0.05, 0.0, 0.8, 0.5)
    t = np.linspace(0.0, 1.0, spec.nt)
    x = np.linspace(0.0, 1.0, spec.n, endpoint=False)
    data = np.outer(np.exp(-12.0 * (t - 0.4) ** 2), 1.0 + 0.5 * np.cos(2 * np.pi * x))
    return flow.CoefKernel(spec, data.ravel(), 1)


class Identities:
    """Paper-identity checks, no solver and no model force: the expectation
    flow against the Wick tadpole, the tadpole's growth as nu -> 0, the
    kernel invariant battery and the Taylor reconstruction identity."""

    name = "identities"
    taylor_cases = (((0, 0), 2), ((0, 1), 2))

    def __init__(self, seed: int, smoke: bool, out: Path):
        self.seed = seed
        n_flow = 256 if smoke else 1024
        self.flow_spec = LatticeSpec(1, n_flow, 0.01, -2.0, 1.0, 0.5)
        self.flow_models = [
            preset("phi4_desk", lam=0.3, noise=_mollified(nu, seed)) for nu in (0.1, 0.05)
        ]
        # criterion 3's tadpole points, without n = 32768 (a 2 GB phase matrix)
        points = ((0.2, 128), (0.1, 256), (0.05, 512)) if smoke else (
            (0.2, 512), (0.1, 2048), (0.05, 8192))
        self.tadpole_points = [
            (LatticeSpec(1, n, 0.01, -2.0, 1.0, 0.5), _mollified(nu, seed)) for nu, n in points
        ]
        self.taylor_kernels = [_taylor_kernel(n) for n in ((64,) if smoke else (64, 128))]

    def prepare(self, batch: int):
        return None

    def run(self, _) -> Batch:
        notes, values = [], []
        for model in self.flow_models:
            nu = model.noise.nu
            # criterion 3's 64 nodes per octave: at the CLI's 16 the flow
            # quadrature defect (~2e-4) hides the identity
            value, rel, _ = _flow_vs_wick(model, self.flow_spec, nu, j_levels=10, nodes_per_octave=64)
            values.append(value)
            notes.append((f"flow counterterm nu={nu} vs Wick tadpole", rel <= 1e-6, f"rel err {rel:.2e} <= 1e-6"))
        previous = 0.0
        for spec, nm in self.tadpole_points:
            c = flow.WickCalculator(spec, nm).tadpole(1.0)
            values.append(c)
            ok = bool(np.isfinite(c)) and c > previous
            notes.append((f"tadpole nu={nm.nu} n={spec.n} grows as nu -> 0", ok, f"C(1) = {c:.6g}"))
            previous = c
        for row in kernels.invariant_battery(d=1, sigma=0.5, n=64):
            values.append(row["value"])
            notes.append((f"battery {row['check']} {row['parameter']}", row["pass"], f"{row['value']:.3e} <= {row['tol']:.1e}"))
        for V in self.taylor_kernels:
            for a, l in self.taylor_cases:
                res = flow.taylor_decompose(V, a, l, n_tau=16)
                rel = res["max_error"] / float(np.max(np.abs(res["direct"].data)))
                values.append(res["max_error"])
                notes.append((f"Taylor n={V.spec.n} a={a} l={l}", rel <= 1e-6, f"rel err {rel:.2e} <= 1e-6"))
        failed = sum(not ok for _, ok, _ in notes)
        return Batch(len(notes), failed, digest_of(values), notes=notes)

    def finish(self, batch: Batch) -> None:
        pass

    def checks(self):
        return [], ""


WORKLOADS = {w.name: w for w in (Ensemble, Simulate, Identities)}
