"""End-to-end acceptance battery.

Each test covers one headline capability, prints a single PASS/FAIL line,
and enforces both the numerical tolerance and the wall-clock budget.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flowpde.flow import (
    WickCalculator,
    effective_force_series,
    expand_pathwise,
    flow_expected,
    stationary_sum,
    taylor_decompose,
)
from flowpde.flow import CoefKernel
from flowpde.kernels import (
    SpectralKernel,
    convolve,
    fit_loglog_slope,
    fluctuation_kernel,
    invariant_battery,
)
from flowpde.harness import ExperimentPlan, Observable, run_universality
from flowpde.lattice import SPACE_ONLY, SPACE_TIME, Field, LatticeSpec
from flowpde.model import RenormScheme, evaluate_force, preset
from flowpde.noise import MollifierProfile, NoiseModel, sample_macroscopic_noise
from flowpde.solver import STATUS_BLEW_UP, SolveConfig, solve_mild

REPO = Path(__file__).resolve().parents[1]
CT_DESK = {(1, 1, ((0,),)): 0.0}


def _report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)


# -- 1. kernel identity battery --------------------------------------------


def test_criterion_1_kernel_battery():
    t0 = time.time()
    rows = invariant_battery(d=1, sigma=0.5, n=64)
    elapsed = time.time() - t0
    failures = [r for r in rows if not r["pass"]]
    ok = not failures and elapsed < 60.0
    _report(
        "criterion 1: kernel identity battery",
        ok,
        f"{len(rows)} checks, {elapsed:.1f} s",
    )
    assert not failures, failures
    assert elapsed < 60.0


# -- 2. Taylor reconstruction identity -------------------------------------


def _taylor_error(n: int, a: tuple, l: int) -> float:
    spec = LatticeSpec(1, n, 0.05, 0.0, 0.8, 0.5)
    t = np.linspace(0.0, 1.0, spec.nt)
    x = np.linspace(0.0, 1.0, spec.n, endpoint=False)
    data = np.outer(
        np.exp(-12.0 * (t - 0.4) ** 2), 1.0 + 0.5 * np.cos(2 * np.pi * x)
    )
    V = CoefKernel(spec, data.ravel(), 1)
    out = taylor_decompose(V, a, l, n_tau=16)
    scale = float(np.max(np.abs(out["direct"].data)))
    return out["max_error"] / scale


def test_criterion_2_taylor_identity():
    t0 = time.time()
    errs64 = {case: _taylor_error(64, *case) for case in (((0, 0), 2), ((0, 1), 2))}
    errs128 = {case: _taylor_error(128, *case) for case in errs64}
    elapsed = time.time() - t0
    fine_ok = all(
        # the tau quadrature at n_tau = 16 resolves the identity to rounding,
        # so refinement in n runs at the floor rather than quartering
        errs128[c] <= max(errs64[c] / 4.0, 1e-9)
        for c in errs64
    )
    coarse_ok = all(e <= 1e-6 for e in errs64.values())
    ok = fine_ok and coarse_ok and elapsed < 60.0
    _report(
        "criterion 2: Taylor reconstruction identity",
        ok,
        f"max rel err n=64: {max(errs64.values()):.2e}, "
        f"n=128: {max(errs128.values()):.2e}, {elapsed:.1f} s",
    )
    assert coarse_ok, errs64
    assert fine_ok, (errs64, errs128)
    assert elapsed < 60.0


# -- 3. expectation flow against the independent Wick oracle ---------------


def _oracle_tadpole(spec: LatticeSpec, noise_model: NoiseModel, mu: float = 1.0) -> float:
    """Literal quadratic-form evaluation of E[((G - G_mu) * noise)^2] from
    the sampling contract alone: trapezoid kernel weights, mollifier tap
    autocorrelation, and a direct quadrature transform of the spatial
    mollifier.  No code shared with the flow module."""
    dt, n, d = spec.dt, spec.n, spec.d
    nu = noise_model.nu
    prof = MollifierProfile(noise_model.family)

    def h(s):
        out = np.zeros_like(s, dtype=float)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    def chi(t):
        t = np.asarray(t, dtype=float)
        h1, h2 = h(t - 1.0), h(2.0 - t)
        with np.errstate(invalid="ignore"):
            return np.where(h1 + h2 > 0, h1 / (h1 + h2), 0.0)

    n_tap = max(int(np.ceil(0.5 * nu / dt)) + 1, 1)
    s = dt * np.arange(n_tap)
    taps = prof.temporal(s / nu) / nu
    tot = taps.sum() * dt
    if tot <= 0:
        taps = np.zeros(n_tap)
        taps[0] = 1.0 / dt
    else:
        taps = taps / tot
    acorr = np.correlate(taps, taps, mode="full")
    off = n_tap - 1

    lam = nu ** (1.0 / spec.sigma)
    k = spec.axis_freqs()
    u = np.linspace(-0.75, 0.75, 6001)
    du = u[1] - u[0]
    m_u = prof.spatial(u)
    mhat = np.trapezoid(m_u[None, :] * np.exp(-1j * np.outer(lam * k, u)), dx=du, axis=1)
    mhat2 = np.abs(mhat) ** 2

    T = int(np.ceil(2.0 * mu / dt))
    t = dt * np.arange(T + 1)
    wq = np.full(T + 1, dt)
    wq[0] = 0.5 * dt
    wt = (1.0 - chi(t / mu)) * wq
    jj = np.arange(T + 1)
    dj = jj[:, None] - jj[None, :]
    A = np.zeros((T + 1, T + 1))
    inside = np.abs(dj) <= off
    A[inside] = acorr[dj[inside] + off]

    total = 0.0
    ksig = np.abs(k) ** spec.sigma
    for c0 in range(0, n, 64):
        kk = ksig[c0 : c0 + 64]
        K = np.exp(-np.outer(t, kk))
        W = wt[:, None] * K
        Q = np.einsum("jc,jk,kc->c", W, A, W)
        total += float(np.sum(mhat2[c0 : c0 + 64] * Q))
    return dt / (spec.dx**d * n**d) * total


def test_criterion_3_flow_tadpole_and_scaling():
    t0 = time.time()
    # (a) the tadpole anchoring the expectation flow equals the oracle
    spec = LatticeSpec(1, 1024, 0.01, -2.0, 1.0, 0.5)
    rel_errs = []
    for nu in (0.1, 0.05):
        nm = NoiseModel("mollified_white", nu, 11, "bump", resolution_policy="spectral")
        model = preset("phi4_desk", lam=0.3, noise=nm)
        scheme = RenormScheme.for_model(model)
        _, ct = flow_expected(model, spec, nu, scheme, j_levels=10, nodes_per_octave=64)
        key = (1, 1, ((0,),))
        # one Wick contraction of the cubic closes the first-order flow:
        # counterterm = anchor - 3 c_(1,3) C(1), with C(1) from the oracle
        from flowpde.model import coefficient_value

        c3 = next(
            coefficient_value(model, m, nu)
            for m in model.monomials
            if (m.i, m.m) == (1, 3)
        )
        oracle = scheme.as_dict()[key] - 3.0 * c3 * _oracle_tadpole(spec, nm, 1.0)
        rel_errs.append(abs(ct.entries[key] - oracle) / abs(oracle))
    # (b) the tadpole diverges like [nu]^(-sigma) = [nu]^(-1/2) as nu -> 0;
    # each nu gets a lattice resolving its k-space tail
    cs = []
    nus = (0.2, 0.1, 0.05, 0.025)
    for nu, n in zip(nus, (512, 2048, 8192, 32768)):
        sp = LatticeSpec(1, n, 0.01, -2.0, 1.0, 0.5)
        nm = NoiseModel("mollified_white", nu, 11, "bump", resolution_policy="spectral")
        cs.append(WickCalculator(sp, nm).tadpole(1.0))
    lams = [nu ** (1.0 / 0.5) for nu in nus]
    slope = fit_loglog_slope(lams, cs)
    elapsed = time.time() - t0
    ok = max(rel_errs) <= 1e-6 and abs(slope + 0.5) <= 0.05 and elapsed < 120.0
    _report(
        "criterion 3: expectation flow vs Wick oracle",
        ok,
        f"rel err {max(rel_errs):.2e}, slope {slope:.4f}, {elapsed:.1f} s",
    )
    assert max(rel_errs) <= 1e-6, rel_errs
    assert abs(slope + 0.5) <= 0.05, slope
    assert elapsed < 120.0


# -- 4. effective-force semigroup identity ---------------------------------


def test_criterion_4_effective_force_semigroup():
    t0 = time.time()
    spec = LatticeSpec(1, 64, 0.02, -2.0, 1.0, 0.5)
    nm = NoiseModel("mollified_white", 0.1, 11, "bump", resolution_policy="spectral")
    model = preset("phi4_desk", lam=0.3, noise=nm)
    xi = sample_macroscopic_noise(nm, spec, 0)
    rng = np.random.default_rng(4)
    phi = Field(spec, rng.standard_normal((spec.nt, spec.n)), SPACE_TIME)
    mu, eta = 0.2, 0.6
    fm = effective_force_series(model, CT_DESK, xi, {0: phi}, 2, mu=mu)
    dker = SpectralKernel(
        spec,
        fluctuation_kernel(spec, mu).mult - fluctuation_kernel(spec, eta).mult,
    )
    shifts = {k: convolve(dker, fm[k]) for k in fm}
    phi_eta = {0: Field(spec, phi.data + shifts[0].data, SPACE_TIME), 1: shifts[1], 2: shifts[2]}
    fe = effective_force_series(model, CT_DESK, xi, phi_eta, 2, mu=eta)
    residuals = []
    for order in (1, 2):
        scale = max(float(np.max(np.abs(fm[order].data))), 1.0)
        residuals.append(float(np.max(np.abs(fm[order].data - fe[order].data))) / scale)
    elapsed = time.time() - t0
    ok = max(residuals) <= 1e-6 and elapsed < 120.0
    _report(
        "criterion 4: effective-force semigroup identity",
        ok,
        f"order-1 {residuals[0]:.2e}, order-2 {residuals[1]:.2e}, {elapsed:.1f} s",
    )
    assert max(residuals) <= 1e-6, residuals
    assert elapsed < 120.0


# -- 5. stationary hierarchy residual scaling ------------------------------


def test_criterion_5_stationary_residual_scaling():
    t0 = time.time()
    spec = LatticeSpec(1, 64, 0.02, -2.0, 1.0, 0.5)
    nm = NoiseModel("mollified_white", 0.1, 11, "bump", resolution_policy="spectral")
    xi = sample_macroscopic_noise(nm, spec, 0)
    model = preset("phi4_desk", lam=1.0, noise=nm)
    ker = fluctuation_kernel(spec, 1.0)
    lams = (0.1, 0.05, 0.025)
    slopes = {}
    for i_max in (1, 2):
        expansion = expand_pathwise(model, CT_DESK, xi, i_max)
        norms = []
        for lam in lams:
            m = replace(model, lam=lam)
            psi = stationary_sum(expansion, lam, i_max)
            force = evaluate_force(m, CT_DESK, psi, xi, nm.nu)
            resid = psi.data - convolve(ker, force).data
            norms.append(float(np.max(np.abs(resid[spec.nt // 2 :]))))
        slopes[i_max] = fit_loglog_slope(lams, norms)
    elapsed = time.time() - t0
    ok = all(
        abs(slopes[i] - (i + 1)) <= 0.15 * (i + 1) for i in slopes
    ) and elapsed < 120.0
    _report(
        "criterion 5: stationary residual scaling",
        ok,
        f"slopes {slopes[1]:.3f} (target 2), {slopes[2]:.3f} (target 3), {elapsed:.1f} s",
    )
    for i, sl in slopes.items():
        assert abs(sl - (i + 1)) <= 0.15 * (i + 1), slopes
    assert elapsed < 120.0


# -- 6. blow-up detection against the flat-mode ODE ------------------------


def test_criterion_6_blow_up_time():
    t0 = time.time()
    dt = 1e-4
    radius = 10.0
    spec = LatticeSpec(1, 16, dt, 0.0, 1.0, 0.5)
    model = preset("phi4_desk", lam=1.0, base=1.0)
    phi0 = Field(spec, np.ones(spec.n), SPACE_ONLY)
    cfg = SolveConfig(scheme="etd_rk2", blow_up_radius=radius, max_horizon=1.0)
    res = solve_mild(model, CT_DESK, None, phi0, cfg)
    # flat data solves dphi/dt = phi^3; |phi| crosses R at (1 - 1/R^2)/2
    target = (1.0 - 1.0 / radius**2) / 2.0
    err = abs(res.breve_T - target)
    elapsed = time.time() - t0
    ok = res.status == STATUS_BLEW_UP and err <= 2.0 * dt and elapsed < 30.0
    _report(
        "criterion 6: blow-up detection",
        ok,
        f"breve_T {res.breve_T:.6f} vs {target:.6f}, {elapsed:.1f} s",
    )
    assert res.status == STATUS_BLEW_UP
    assert err <= 2.0 * dt, (res.breve_T, target)
    assert elapsed < 30.0


# -- 7. universality across mollifier families -----------------------------


def _universality_plan(samples, overrides=()):
    def variant(family):
        nm = NoiseModel("mollified_white", 0.2, 11, family, resolution_policy="spectral")
        return (family, preset("phi4_desk", lam=0.3, noise=nm))

    return ExperimentPlan(
        variants=(variant("bump"), variant("skew")),
        nu_schedule=(0.2, 0.1, 0.05),
        samples=samples,
        n=256,
        dt=0.0025,
        t_max=0.5,
        observables=(Observable("slice_moment", p=2, time=0.5),),
        counterterm_overrides=overrides,
        solve=SolveConfig(scheme="etd1", blow_up_radius=50.0, max_horizon=0.5, t_local=0.5),
        history=2.0,
        flow_j_levels=8,
        flow_nodes_per_octave=8,
    )


@pytest.mark.slow
def test_criterion_7_universality():
    t0 = time.time()
    report = run_universality(_universality_plan(200))
    details = report.verdict["observables"]["moment2@t0.5"]
    zero = (((1, 1, ((0,),)), 0.0),)
    control = run_universality(
        _universality_plan(150, overrides=(("bump", zero), ("skew", zero)))
    )
    drift_ratios = [
        abs(drift) / se
        for seq in control.drifts.values()
        for (_, _, drift, se) in seq
    ]
    elapsed = time.time() - t0
    ok = (
        report.verdict["universal"]
        and abs(details["final_gap"]) <= 3.0 * details["final_se"]
        and details["violations"] <= 1
        and max(drift_ratios) > 3.0
        and elapsed < 1200.0
    )
    _report(
        "criterion 7: universality across mollifier families",
        ok,
        f"final gap {details['final_gap']:.4f} (se {details['final_se']:.4f}), "
        f"control drift {max(drift_ratios):.1f} se, {elapsed:.0f} s",
    )
    assert report.verdict["universal"], report.verdict
    assert abs(details["final_gap"]) <= 3.0 * details["final_se"]
    assert details["violations"] <= 1
    assert max(drift_ratios) > 3.0, control.drifts
    assert elapsed < 1200.0


# -- 8. byte-identical replay from the manifest ----------------------------


def test_criterion_8_manifest_replay(tmp_path):
    t0 = time.time()
    model_cfg = str(REPO / "configs" / "phi4_desk.json")
    out1, out2 = tmp_path / "first", tmp_path / "replay"
    env1 = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env4 = dict(os.environ, OMP_NUM_THREADS="4", OPENBLAS_NUM_THREADS="4")
    base = [sys.executable, "-m", "flowpde.cli", "simulate", "--model", model_cfg, "--sample", "3"]
    subprocess.run(base + ["--out", str(out1)], check=True, capture_output=True, env=env1)
    manifest = json.loads((out1 / "manifest.json").read_text())
    argv = list(manifest["argv"])
    argv[argv.index(str(out1))] = str(out2)
    subprocess.run(
        [sys.executable, "-m", "flowpde.cli"] + argv,
        check=True,
        capture_output=True,
        env=env4,
    )
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("trajectory.fld", "norms.csv")
    )
    elapsed = time.time() - t0
    ok = same and elapsed < 120.0
    _report(
        "criterion 8: byte-identical replay from manifest",
        ok,
        f"threads 1 vs 4, {elapsed:.1f} s",
    )
    assert same
    assert elapsed < 120.0
