import numpy as np
import pytest

from flowpde.errors import ValidationFault
from flowpde.lattice import SPACE_ONLY, SPACE_TIME, Field, LatticeSpec
from flowpde.model import evaluate_force, preset
from flowpde.noise import sample_macroscopic_noise
from flowpde.solver import (
    STATUS_BLEW_UP,
    STATUS_COMPLETED,
    SolveConfig,
    _dealias_mask,
    _phi1,
    _phi2,
    _slice_index,
    build_stationary_shift,
    solve_decomposed,
    solve_mild,
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
    """The force is compiled before the first step, so even a solve with no
    steps left in the window rejects missing counterterms."""
    spec = LatticeSpec(1, 16, 0.01, 0.0, 1.0, 0.5)
    model = preset("phi4_desk", lam=0.3, noise=desk_noise)
    phi0 = Field(spec, np.zeros(spec.n), SPACE_ONLY)
    for t_start in (0.0, spec.t_max):
        with pytest.raises(ValidationFault, match="missing relevant"):
            solve_mild(model, None, None, phi0, SolveConfig(), t_start=t_start)


def _reference_etd_rk2(model, counterterms, noise, phi0, cfg):
    """ETD2RK with the force evaluated afresh by evaluate_force at every
    stage: the reference for the solver's compiled force."""
    spec = phi0.spec
    dt = spec.dt
    n_steps = int(round(min(cfg.max_horizon, spec.t_max) / dt))
    lin = -dt * spec.k_norm() ** spec.sigma
    e_lin, w1, w2 = np.exp(lin), dt * _phi1(lin), dt * _phi2(lin)
    mask = _dealias_mask(spec)
    axes = (0,)

    def force_hat(phi_hat, t):
        phi = Field(spec, np.fft.ifftn(phi_hat, axes=axes).real, SPACE_ONLY)
        xi = Field(spec, noise.data[_slice_index(noise, t)], SPACE_ONLY)
        f = evaluate_force(model, counterterms, phi, xi, model.noise.nu).data
        return np.fft.fftn(f, axes=axes) * mask

    phi_hat = np.fft.fftn(phi0.data, axes=axes).astype(complex)
    traj = [phi0.data]
    for j in range(n_steps):
        t = j * dt
        f0 = force_hat(phi_hat, t)
        a_hat = e_lin * phi_hat + w1 * f0
        phi_hat = a_hat + w2 * (force_hat(a_hat, t + dt) - f0)
        traj.append(np.fft.ifftn(phi_hat, axes=axes).real)
    return np.array(traj)


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
    np.testing.assert_array_equal(
        res.trajectory.data, _reference_etd_rk2(model, ct, xi, phi0, cfg)
    )
