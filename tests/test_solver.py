import numpy as np
import pytest

from flowpde.errors import NumericalFault, ValidationFault
from flowpde.kernels import DEFAULT_EPS
from flowpde.lattice import SPACE_ONLY, SPACE_TIME, Field, LatticeSpec
from flowpde.model import evaluate_force, preset
from flowpde.noise import sample_macroscopic_noise
from flowpde.norms import c_gamma_norm
from flowpde.solver import (
    STATUS_BLEW_UP,
    STATUS_COMPLETED,
    SolveConfig,
    _dealias_mask,
    _phi1,
    _phi2,
    build_stationary_shift,
    solve_decomposed,
    solve_mild,
    solve_stack,
    solve_window,
    solve_with_patching,
)

CT_DESK = {(1, 1, ((0,),)): 0.0}


def test_solve_config_validation():
    with pytest.raises(ValidationFault):
        SolveConfig(scheme="implicit_euler")
    with pytest.raises(ValidationFault):
        SolveConfig(t_local=0.0)
    with pytest.raises(ValidationFault):
        SolveConfig(blow_up_radius=0.5)
    nan, inf = float("nan"), float("inf")
    for horizon in (0.0, -0.5, nan, inf):
        with pytest.raises(ValidationFault, match="max_horizon"):
            SolveConfig(max_horizon=horizon)
    with pytest.raises(ValidationFault, match="radius"):
        SolveConfig(blow_up_radius=nan)
    for gamma in (nan, inf):
        with pytest.raises(ValidationFault, match="gamma"):
            SolveConfig(gamma=gamma)


def test_linear_decay_is_exact():
    """With no force the integrator reduces to the exact heat factor, so a
    single Fourier mode decays like e^(-t |k|^sigma) to rounding."""
    spec = LatticeSpec(1, 32, 0.01, 0.0, 1.0, 0.5)
    model = preset("linear_desk")
    x = spec.coords()[0]
    phi0 = Field(spec, np.cos(x), SPACE_ONLY)
    from flowpde.model import relevant_filtered

    ct = {key: 0.0 for key in relevant_filtered(model)}
    res = solve_mild(model, ct, None, phi0, SolveConfig(max_horizon=1.0))
    assert res.status == STATUS_COMPLETED
    np.testing.assert_allclose(
        res.trajectory.data[-1], np.exp(-1.0) * np.cos(x), atol=1e-10
    )


def test_focusing_cubic_blows_up():
    spec = LatticeSpec(1, 16, 0.001, 0.0, 1.0, 0.5)
    model = preset("phi4_desk", lam=1.0, base=1.0)
    phi0 = Field(spec, np.full(spec.n, 2.0), SPACE_ONLY)
    res = solve_mild(model, CT_DESK, None, phi0, SolveConfig(blow_up_radius=10.0))
    assert res.status == STATUS_BLEW_UP
    # flat-mode ODE dphi/dt = phi^3 from phi0 = 2 blows up at t = 1/8
    assert 0.0 < res.breve_T < 0.2
    assert res.slice_norms[-1] >= 10.0


def test_defocusing_cubic_completes():
    spec = LatticeSpec(1, 16, 0.001, 0.0, 1.0, 0.5)
    model = preset("phi4_desk", lam=1.0, base=-1.0)
    phi0 = Field(spec, np.full(spec.n, 2.0), SPACE_ONLY)
    res = solve_mild(model, CT_DESK, None, phi0, SolveConfig(blow_up_radius=10.0))
    assert res.status == STATUS_COMPLETED
    assert np.all(np.isfinite(res.trajectory.data))


def test_patching_matches_single_window(desk_noise, rng):
    """An explicit scheme restarted at seams reproduces the one-shot
    trajectory up to the fft/ifft roundtrip at each seam."""
    spec = LatticeSpec(1, 32, 0.005, -2.0, 1.0, 0.5)
    model = preset("phi4_desk", lam=0.3, noise=desk_noise)
    xi = sample_macroscopic_noise(desk_noise, spec, 0)
    phi0 = Field(spec, 0.1 * rng.standard_normal(spec.n), SPACE_ONLY)
    cfg_one = SolveConfig(scheme="etd1", t_local=1.0, max_horizon=0.5)
    cfg_many = SolveConfig(scheme="etd1", t_local=0.1, max_horizon=0.5)
    a = solve_mild(model, CT_DESK, xi, phi0, cfg_one)
    b = solve_with_patching(model, CT_DESK, xi, phi0, cfg_many)
    np.testing.assert_allclose(a.trajectory.data, b.trajectory.data, atol=1e-12)
    assert a.status == b.status == STATUS_COMPLETED


def test_solver_is_deterministic(desk_noise, rng):
    spec = LatticeSpec(1, 32, 0.005, -2.0, 1.0, 0.5)
    model = preset("phi4_desk", lam=0.3, noise=desk_noise)
    xi = sample_macroscopic_noise(desk_noise, spec, 2)
    phi0 = Field(spec, 0.1 * rng.standard_normal(spec.n), SPACE_ONLY)
    cfg = SolveConfig(max_horizon=0.3)
    a = solve_mild(model, CT_DESK, xi, phi0, cfg)
    b = solve_mild(model, CT_DESK, xi, phi0, cfg)
    np.testing.assert_array_equal(a.trajectory.data, b.trajectory.data)


def test_shift_requires_long_window(desk_noise):
    spec = LatticeSpec(1, 16, 0.01, 0.0, 1.0, 0.5)
    model = preset("phi4_desk", lam=0.3, noise=desk_noise)
    xi = sample_macroscopic_noise(desk_noise, spec, 0)
    with pytest.raises(ValidationFault, match="window too short"):
        build_stationary_shift(model, CT_DESK, xi)


def test_decomposed_solution_structure(desk_noise):
    spec = LatticeSpec(1, 32, 0.005, -2.5, 1.0, 0.5)
    model = preset("phi4_desk", lam=0.3, noise=desk_noise)
    xi = sample_macroscopic_noise(desk_noise, spec, 1)
    phi0 = Field(spec, np.zeros(spec.n), SPACE_ONLY)
    cfg = SolveConfig(scheme="etd1", max_horizon=0.3)
    res = solve_decomposed(model, CT_DESK, xi, phi0, cfg)
    assert res.status == STATUS_COMPLETED
    assert set(res.parts) == {"shift", "remainder"}
    assert np.all(np.isfinite(res.trajectory.data))
    # the decomposition is exact: shift + remainder = total on the window
    shift = res.parts["shift"]
    remainder = res.parts["remainder"].data
    nt = remainder.shape[0]
    assert res.trajectory.data.shape[0] == nt
    j0 = int(round((0.0 - shift.spec.t_min) / shift.spec.dt))
    np.testing.assert_array_equal(res.trajectory.data, shift.data[j0 : j0 + nt] + remainder)


def test_initial_data_must_be_slice(desk_noise):
    spec = LatticeSpec(1, 16, 0.01, 0.0, 1.0, 0.5)
    model = preset("phi4_desk", lam=0.3, noise=desk_noise)
    bad = Field(spec, np.zeros((spec.nt, spec.n)), SPACE_TIME)
    with pytest.raises(ValidationFault, match="space_only"):
        solve_mild(model, CT_DESK, None, bad, SolveConfig())


def test_missing_coefficient_faults_before_any_step(desk_noise):
    """The force is compiled before the first step, so even a solve whose
    horizon is a single step rejects missing counterterms before taking it."""
    spec = LatticeSpec(1, 16, 0.01, 0.0, 1.0, 0.5)
    model = preset("phi4_desk", lam=0.3, noise=desk_noise)
    phi0 = Field(spec, np.zeros(spec.n), SPACE_ONLY)
    for cfg in (SolveConfig(), SolveConfig(max_horizon=spec.dt)):
        with pytest.raises(ValidationFault, match="missing relevant"):
            solve_mild(model, None, None, phi0, cfg)


def _reference_solve(model, counterterms, phi0, cfg, noise=None, shift=None):
    """The per-sample solver: the force evaluated afresh by evaluate_force
    at every stage, a restart from the real slice at every seam of t_local,
    a stop at the blow-up radius.  noise / shift are the sample's
    solve_window slices; with shift the decomposed total is returned.
    The reference for the compiled force and the stacked loop."""
    spec = phi0.spec
    dt = spec.dt
    n_steps = int(round(min(cfg.max_horizon, spec.t_max) / dt))
    per_window = max(int(round(cfg.t_local / dt)), 1)
    lin = -dt * spec.k_norm() ** spec.sigma
    e_lin, w1, w2 = np.exp(lin), dt * _phi1(lin), dt * _phi2(lin)
    gamma = spec.sigma - DEFAULT_EPS

    def force_hat(phi_hat, j):
        phi = np.fft.ifft(phi_hat).real
        if shift is not None:
            phi, xi = phi + shift[j], None
        else:
            xi = None if noise is None else Field(spec, noise[j], SPACE_ONLY)
        f = evaluate_force(model, counterterms, Field(spec, phi, SPACE_ONLY), xi, model.noise.nu).data
        f = np.fft.fft(f)
        return f * _dealias_mask(spec) if cfg.dealias else f

    traj = [phi0.data if shift is None else phi0.data - shift[0]]
    norms = [c_gamma_norm(Field(spec, traj[0], SPACE_ONLY), gamma)]
    status = STATUS_COMPLETED
    for j in range(n_steps):
        if j % per_window == 0:
            phi_hat = np.fft.fft(traj[-1])
        f0 = force_hat(phi_hat, j)
        phi_hat = e_lin * phi_hat + w1 * f0
        if cfg.scheme == "etd_rk2":
            phi_hat = phi_hat + w2 * (force_hat(phi_hat, j + 1) - f0)
        traj.append(np.fft.ifft(phi_hat).real)
        norms.append(c_gamma_norm(Field(spec, traj[-1], SPACE_ONLY), gamma))
        if norms[-1] >= cfg.blow_up_radius:
            status = STATUS_BLEW_UP
            break
    traj = np.array(traj)
    if shift is not None:
        traj = traj + shift[: len(traj)]
    return traj, np.array(norms), status


def test_compiled_force_trajectory_matches_per_step_evaluation(desk_noise, rng):
    spec = LatticeSpec(1, 32, 0.005, -2.0, 1.0, 0.5)
    model = preset("phi4_desk", lam=0.3, noise=desk_noise)
    ct = {(1, 1, ((0,),)): -0.4}
    xi = sample_macroscopic_noise(desk_noise, spec, 4)
    phi0 = Field(spec, 0.5 * rng.standard_normal(spec.n), SPACE_ONLY)
    cfg = SolveConfig(scheme="etd_rk2", dealias=True, max_horizon=0.3, t_local=1.0)
    res = solve_mild(model, ct, xi, phi0, cfg)
    assert res.status == STATUS_COMPLETED
    assert res.trajectory.data.shape[0] == 61
    window = solve_window(xi, spec, cfg)
    np.testing.assert_array_equal(
        res.trajectory.data, _reference_solve(model, ct, phi0, cfg, noise=window)[0]
    )


def _windows(model, ct, spec, cfg, samples, shifted):
    """Each sample's solve_window slices of its noise or its shift."""
    out = []
    for s in samples:
        xi = sample_macroscopic_noise(model.noise, spec, s, history=2.0)
        drive = build_stationary_shift(model, ct, xi) if shifted else xi
        out.append(solve_window(drive, spec, cfg).copy())
    return np.stack(out)


@pytest.mark.parametrize(
    "shifted, scheme, t_local",
    [(True, "etd1", 0.25), (False, "etd_rk2", 0.07)],
    ids=["shift-etd1-one-window", "direct-etd_rk2-four-windows"],
)
def test_stack_equals_per_sample_reference(desk_noise, shifted, scheme, t_local):
    """A stack of samples solved together gives each sample's trajectory,
    norms and status of the per-sample reference, bit for bit."""
    spec = LatticeSpec(1, 64, 0.01, 0.0, 0.25, 0.5)
    model = preset("phi4_desk", lam=0.3, noise=desk_noise)
    ct = {(1, 1, ((0,),)): -0.4}
    cfg = SolveConfig(scheme=scheme, max_horizon=0.25, t_local=t_local)
    zero = Field(spec, np.zeros(spec.n), SPACE_ONLY)
    drive = _windows(model, ct, spec, cfg, range(4), shifted)
    kind = "shift" if shifted else "noise"
    results = solve_stack(model, ct, zero, cfg, **{kind: drive})
    assert len(results) == 4
    for res, window in zip(results, drive):
        traj, norms, status = _reference_solve(model, ct, zero, cfg, **{kind: window})
        assert res.status == status == STATUS_COMPLETED
        np.testing.assert_array_equal(res.trajectory.data, traj)
        np.testing.assert_array_equal(res.slice_norms, norms)


def test_stack_sample_blows_up_while_others_complete():
    """A sample that reaches the blow-up radius stops there; the others run
    on and match their own solves of one."""
    spec = LatticeSpec(1, 16, 0.001, 0.0, 0.3, 0.5)
    model = preset("phi4_desk", lam=1.0, base=1.0)
    cfg = SolveConfig(scheme="etd_rk2", blow_up_radius=10.0, max_horizon=0.3, t_local=0.1)
    zero = Field(spec, np.zeros(spec.n), SPACE_ONLY)
    x = spec.coords()[0]
    shape = (spec.nt, spec.n)
    noise = np.stack([np.full(shape, 0.5 * np.cos(x)), np.full(shape, 40.0), np.zeros(shape)])
    results = solve_stack(model, CT_DESK, zero, cfg, noise=noise)
    assert [r.status for r in results] == [STATUS_COMPLETED, STATUS_BLEW_UP, STATUS_COMPLETED]
    blown = results[1]
    assert blown.slice_norms[-1] >= 10.0 and np.all(blown.slice_norms[:-1] < 10.0)
    assert blown.trajectory.data.shape[0] == len(blown.slice_norms) < spec.nt
    assert blown.breve_T == pytest.approx((len(blown.slice_norms) - 1) * spec.dt)
    for s in (0, 2):
        one = solve_mild(model, CT_DESK, Field(spec, noise[s], SPACE_TIME), zero, cfg)
        alone = solve_with_patching(model, CT_DESK, Field(spec, noise[s], SPACE_TIME), zero, cfg)
        assert results[s].breve_T == alone.breve_T == pytest.approx(spec.t_max)
        np.testing.assert_array_equal(results[s].trajectory.data, alone.trajectory.data)
        np.testing.assert_array_equal(results[s].slice_norms, alone.slice_norms)
        np.testing.assert_allclose(results[s].trajectory.data, one.trajectory.data, atol=1e-12)


def test_non_finite_step_in_stack_faults():
    spec = LatticeSpec(1, 16, 0.01, 0.0, 0.2, 0.5)
    model = preset("phi4_desk", lam=0.3)
    cfg = SolveConfig(scheme="etd1", max_horizon=0.2)
    zero = Field(spec, np.zeros(spec.n), SPACE_ONLY)
    noise = np.zeros((3, spec.nt, spec.n))
    noise[1, 5, 3] = np.nan
    with pytest.raises(NumericalFault, match="numerical overflow"):
        solve_stack(model, CT_DESK, zero, cfg, noise=noise)


def test_solve_window_checks_lattice_and_range(desk_noise):
    spec = LatticeSpec(1, 16, 0.01, 0.0, 0.5, 0.5)
    xi = sample_macroscopic_noise(desk_noise, spec, 0, history=1.0)
    window = solve_window(xi, spec, SolveConfig(max_horizon=0.3))
    np.testing.assert_array_equal(window, xi.data[100:131])
    longer = LatticeSpec(1, 16, 0.01, 0.0, 0.8, 0.5)
    with pytest.raises(ValidationFault, match="outside the noise window"):
        solve_window(xi, longer, SolveConfig())
    other = LatticeSpec(1, 32, 0.01, 0.0, 0.5, 0.5)
    with pytest.raises(ValidationFault, match="lattice does not match"):
        solve_window(xi, other, SolveConfig())


def test_solve_window_rejects_noise_sampled_at_another_sigma(desk_noise):
    spec = LatticeSpec(1, 16, 0.01, 0.0, 0.5, 0.5)
    xi = sample_macroscopic_noise(desk_noise, spec, 0, history=1.0)
    other = LatticeSpec(1, 16, 0.01, 0.0, 0.5, 1.0)
    with pytest.raises(ValidationFault, match="sigma"):
        solve_window(xi, other, SolveConfig())


def test_solve_window_rejects_a_field_off_the_solve_time_grid():
    """A field whose slices sit at -0.004 + j dt has no slice at t = 0; its
    slice at -0.004 must not be read as the initial one."""
    spec = LatticeSpec(1, 16, 0.01, 0.0, 0.5, 0.5)
    shifted = LatticeSpec(1, 16, 0.01, -0.004, 0.996, 0.5)
    xi = Field(shifted, np.zeros((shifted.nt, shifted.n)), SPACE_TIME)
    with pytest.raises(ValidationFault, match="integer multiple of dt"):
        solve_window(xi, spec, SolveConfig())
