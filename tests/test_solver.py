import dataclasses

import numpy as np
import pytest

from flowpde.errors import NumericalFault, ValidationFault
from flowpde.kernels import DEFAULT_EPS, SpectralKernel, convolve, heat_multiplier
from flowpde.lattice import SPACE_ONLY, SPACE_TIME, Field, LatticeSpec, rfft_space
from flowpde.model import ModelSpec, Monomial, evaluate_force, preset, relevant_filtered
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


def _free_decay(spec, slices, start):
    """e^(-t|k|^sigma) start at t = 0, dt, ... for `slices` slices of a
    d = 1 lattice, by full complex transforms."""
    t = spec.dt * np.arange(slices)
    return np.fft.ifft(np.exp(-np.outer(t, spec.k_norm() ** spec.sigma)) * np.fft.fft(start)).real


def test_decomposed_solution_structure(desk_noise, rng):
    """solve_stack on a shift: Phi = D + R with the driver
    D = shift - e^(-t|k|^sigma) shift(0), zero at t = 0.  Phi starts at phi0
    exactly, and the monitor reads the norms of R = Phi - D."""
    spec = LatticeSpec(1, 32, 0.005, -2.5, 1.0, 0.5)
    model = preset("phi4_desk", lam=0.3, noise=desk_noise)
    xi = sample_macroscopic_noise(desk_noise, spec, 1)
    phi0 = Field(spec, 0.1 * rng.standard_normal(spec.n), SPACE_ONLY)
    cfg = SolveConfig(scheme="etd1", max_horizon=0.3)
    window = solve_window(build_stationary_shift(model, CT_DESK, xi), spec, cfg)
    [res] = solve_stack(model, CT_DESK, phi0, cfg, shift=rfft_space(window[None], 1))
    assert res.status == STATUS_COMPLETED
    assert np.all(np.isfinite(res.trajectory.data))
    assert res.trajectory.data.shape[0] == window.shape[0]
    np.testing.assert_array_equal(res.trajectory.data[0], phi0.data)
    remainder = res.trajectory.data - (window - _free_decay(spec, len(window), window[0]))
    gamma = spec.sigma - DEFAULT_EPS
    norms = [c_gamma_norm(Field(spec, r, SPACE_ONLY), gamma) for r in remainder]
    np.testing.assert_allclose(res.slice_norms, norms, rtol=1e-12)


def test_shift_path_monitor_starts_at_phi0(desk_noise, rng):
    """A shift whose t = 0 slice alone is far above the blow-up radius does
    not stop the solve: the monitor measures the remainder, which starts at
    phi0.  Here the shift is the free decay of its t = 0 slice, so the
    driver is zero up to round-off and the remainder stays small."""
    spec = LatticeSpec(1, 32, 0.005, 0.0, 0.3, 0.5)
    model = preset("phi4_desk", lam=0.3, noise=desk_noise)
    cfg = SolveConfig(scheme="etd1", max_horizon=0.3, blow_up_radius=10.0)
    phi0 = Field(spec, 0.1 * rng.standard_normal(spec.n), SPACE_ONLY)
    start = 30.0 * np.cos(spec.coords()[0])
    gamma = spec.sigma - DEFAULT_EPS
    assert c_gamma_norm(Field(spec, start, SPACE_ONLY), gamma) > 5 * cfg.blow_up_radius
    shift = _free_decay(spec, spec.nt, start)
    [res] = solve_stack(model, CT_DESK, phi0, cfg, shift=rfft_space(shift[None], 1))
    assert res.status == STATUS_COMPLETED
    assert res.breve_T == pytest.approx(spec.t_max)
    np.testing.assert_array_equal(res.trajectory.data[0], phi0.data)
    assert res.slice_norms[0] == c_gamma_norm(phi0, gamma)
    assert np.max(res.slice_norms) < 1.0


def _linear_direct(noise, spec, dealias):
    """The direct path of linear_desk from phi0 = 0 (etd1, one window)."""
    model = preset("linear_desk", noise=noise)
    ct = {key: 0.0 for key in relevant_filtered(model)}
    xi = sample_macroscopic_noise(noise, spec, 0, history=2.0)
    cfg = SolveConfig(scheme="etd1", dealias=dealias, t_local=1.0, max_horizon=spec.t_max)
    zero = Field(spec, np.zeros(spec.n), SPACE_ONLY)
    return solve_mild(model, ct, xi, zero, cfg), solve_window(xi, spec, cfg)


def test_direct_path_is_the_trapezoid_heat_convolution_of_the_noise(desk_noise):
    """With no polynomial force the remainder stays at phi0 = 0, so the
    direct path is its driver: G * (1_[0,inf) Xi) by kernels.convolve's
    trapezoid rule, less the free decay of its t = 0 slice."""
    spec = LatticeSpec(1, 64, 0.005, 0.0, 0.5, 0.5)
    res, window = _linear_direct(desk_noise, spec, dealias=True)
    assert res.status == STATUS_COMPLETED
    heat = heat_multiplier(spec, spec.dt * np.arange(spec.nt))
    ref = convolve(SpectralKernel(spec, heat), Field(spec, window.copy(), SPACE_TIME)).data
    ref = ref - _free_decay(spec, spec.nt, ref[0])
    assert np.max(np.abs(ref)) > 1.0
    np.testing.assert_allclose(res.trajectory.data, ref, rtol=0.0, atol=1e-13)
    assert np.all(res.slice_norms == 0.0)


def test_dealias_mask_never_sees_the_noise(desk_noise):
    """The 2/3 mask acts on the polynomial force only: on linear_desk,
    which has none, dealias on and off give the same direct trajectory."""
    spec = LatticeSpec(1, 64, 0.005, 0.0, 0.5, 0.5)
    on, _ = _linear_direct(desk_noise, spec, dealias=True)
    off, _ = _linear_direct(desk_noise, spec, dealias=False)
    np.testing.assert_array_equal(on.trajectory.data, off.trajectory.data)


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


def _reference_drive(spec, noise, shift):
    """The driver of one sample from its solve_window slices: S is
    G * (1_[0,inf) noise), stepped slice by slice with trapezoid weights,
    or the shift itself; the driver is S less the free decay of its t = 0
    slice, on the rfft half of the modes, and zero at t = 0."""
    drive = shift if noise is None else noise
    if drive is None:
        return None
    axes = tuple(range(1, spec.d + 1))
    ks = (spec.k_norm() ** spec.sigma)[..., : spec.n // 2 + 1]
    s_hat = np.fft.rfftn(drive, axes=axes)
    if noise is not None:
        acc = s_hat.copy()
        for j in range(1, len(acc)):
            acc[j] += np.exp(-spec.dt * ks) * acc[j - 1]
        s_hat = spec.dt * (acc - 0.5 * s_hat)
    heat = np.exp(-np.multiply.outer(spec.dt * np.arange(len(drive)), ks))
    drive = np.fft.irfftn(s_hat - heat * s_hat[0], spec.space_shape(), axes)
    drive[0] = 0.0
    return drive


def _reference_solve(model, counterterms, phi0, cfg, noise=None, shift=None):
    """The per-sample solver on a d = 1 lattice: the rfft half of R stepped
    with the force evaluated afresh by evaluate_force at every stage, a
    restart from the real slice at every seam of t_local, the c_gamma norm
    read from the half spectrum and a stop at the blow-up radius.  noise /
    shift are the sample's solve_window slices; the remainder starts at
    phi0 and the total R + D is returned.
    The reference for the compiled force and the stacked loop."""
    spec = phi0.spec
    dt = spec.dt
    n_steps = int(round(min(cfg.max_horizon, spec.t_max) / dt))
    per_window = max(int(round(cfg.t_local / dt)), 1)
    half = spec.n // 2 + 1
    lin = -dt * (spec.k_norm() ** spec.sigma)[:half]
    e_lin, w1, w2 = np.exp(lin), dt * _phi1(lin), dt * _phi2(lin)
    norm_mult = 1.0 + spec.k_norm()[:half] ** (spec.sigma - DEFAULT_EPS)
    drive = _reference_drive(spec, noise, shift)

    def force_hat(phi_hat, j):
        phi = np.fft.irfft(phi_hat, spec.n)
        if drive is not None:
            phi = phi + drive[j]
        f = evaluate_force(model, counterterms, Field(spec, phi, SPACE_ONLY), None, model.noise.nu).data
        f = np.fft.rfft(f)
        return f * _dealias_mask(spec)[:half] if cfg.dealias else f

    def norm(phi_hat):
        return np.max(np.abs(np.fft.irfft(norm_mult * phi_hat, spec.n)))

    traj = [phi0.data]
    norms = [norm(np.fft.rfft(phi0.data))]
    status = STATUS_COMPLETED
    for j in range(n_steps):
        if j % per_window == 0:
            phi_hat = np.fft.rfft(traj[-1])
        f0 = force_hat(phi_hat, j)
        phi_hat = e_lin * phi_hat + w1 * f0
        if cfg.scheme == "etd_rk2":
            phi_hat = phi_hat + w2 * (force_hat(phi_hat, j + 1) - f0)
        traj.append(np.fft.irfft(phi_hat, spec.n))
        norms.append(norm(phi_hat))
        if norms[-1] >= cfg.blow_up_radius:
            status = STATUS_BLEW_UP
            break
    traj = np.array(traj)
    if drive is not None:
        traj = traj + drive[: len(traj)]
    return traj, np.array(norms), status


def _complex_reference_solve(model, counterterms, phi0, cfg, noise=None):
    """The stepping loop on full complex transforms, as it ran before the
    rfft half: every mode of R stepped, the real part of each inverse
    transform kept, and the c_gamma norm of each real slice taken by a
    forward and an inverse transform.  Any d."""
    spec = phi0.spec
    dt = spec.dt
    axes = tuple(range(-spec.d, 0))
    n_steps = int(round(min(cfg.max_horizon, spec.t_max) / dt))
    per_window = max(int(round(cfg.t_local / dt)), 1)
    lin = -dt * spec.k_norm() ** spec.sigma
    e_lin, w1, w2 = np.exp(lin), dt * _phi1(lin), dt * _phi2(lin)
    norm_mult = 1.0 + spec.k_norm() ** (spec.sigma - DEFAULT_EPS)
    drive = _reference_drive(spec, noise, None)

    def inverse(coeffs):
        return np.fft.ifftn(coeffs, axes=axes).real

    def force_hat(phi_hat, j):
        phi = inverse(phi_hat) + drive[j]
        f = evaluate_force(model, counterterms, Field(spec, phi, SPACE_ONLY), None, model.noise.nu).data
        f = np.fft.fftn(f, axes=axes)
        return f * _dealias_mask(spec) if cfg.dealias else f

    def norm(data):
        return np.max(np.abs(inverse(norm_mult * np.fft.fftn(data, axes=axes))))

    traj = [phi0.data]
    norms = [norm(phi0.data)]
    status = STATUS_COMPLETED
    for j in range(n_steps):
        if j % per_window == 0:
            phi_hat = np.fft.fftn(traj[-1], axes=axes)
        f0 = force_hat(phi_hat, j)
        phi_hat = e_lin * phi_hat + w1 * f0
        if cfg.scheme == "etd_rk2":
            phi_hat = phi_hat + w2 * (force_hat(phi_hat, j + 1) - f0)
        traj.append(inverse(phi_hat))
        norms.append(norm(traj[-1]))
        if norms[-1] >= cfg.blow_up_radius:
            status = STATUS_BLEW_UP
            break
    traj = np.array(traj)
    return traj + drive[: len(traj)], np.array(norms), status


D2_MODEL = ModelSpec(
    d=2, sigma=1.0, dim_lambda=0.5, lam=0.3, monomials=(Monomial(1, 3, 0, -1.0),), symmetry="parity_z2"
)


@pytest.mark.parametrize(
    "spec, model, ct, cfg",
    [
        (  # flowpde simulate's solve: etd_rk2, dealiased, windows of 0.25
            LatticeSpec(1, 256, 0.0025, 0.0, 0.5, 0.5),
            preset("phi4_desk", lam=0.3),
            {(1, 1, ((0,),)): -0.4},
            SolveConfig(max_horizon=0.5),
        ),
        (  # the rfftn path
            LatticeSpec(2, 16, 0.01, 0.0, 0.25, 1.0),
            D2_MODEL,
            {(1, 1, ((0, 0),)): -0.4, (2, 1, ((0, 0),)): 0.0},
            SolveConfig(scheme="etd1", dealias=False, t_local=0.1, max_horizon=0.25),
        ),
    ],
    ids=["d1-etd_rk2-dealias", "d2-etd1"],
)
def test_rfft_loop_is_the_complex_loop_to_round_off(desk_noise, spec, model, ct, cfg):
    """The loop on the rfft half of the modes, its norm read from the half
    spectrum, takes the complex-transform loop's steps: trajectories and
    slice norms agree to 1e-13 of their size, and the status is equal."""
    model = dataclasses.replace(model, noise=desk_noise)
    xi = sample_macroscopic_noise(desk_noise, spec, 5, history=2.0)
    phi0 = Field(spec, 0.5 * np.cos(spec.coords()[0]), SPACE_ONLY)
    res = solve_mild(model, ct, xi, phi0, cfg)
    traj, norms, status = _complex_reference_solve(model, ct, phi0, cfg, noise=solve_window(xi, spec, cfg))
    assert res.status == status == STATUS_COMPLETED
    assert res.trajectory.data.shape == traj.shape and res.slice_norms.shape == norms.shape
    assert np.max(np.abs(traj)) > 0.5
    assert np.max(np.abs(res.trajectory.data - traj)) <= 1e-13 * np.max(np.abs(traj))
    assert np.max(np.abs(res.slice_norms - norms)) <= 1e-13 * np.max(norms)


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
    results = solve_stack(model, ct, zero, cfg, **{kind: rfft_space(drive, 1)})
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
    results = solve_stack(model, CT_DESK, zero, cfg, noise=rfft_space(noise, 1))
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
        solve_stack(model, CT_DESK, zero, cfg, noise=rfft_space(noise, 1))


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
