import numpy as np
import pytest
from dataclasses import replace

from flowpde.errors import ValidationFault
from flowpde.flow import (
    CoefKernel,
    KernelSpectra,
    WickCalculator,
    apply_moment,
    effective_force_series,
    expand_pathwise,
    flow_expected,
    integrate_I,
    pairing_count,
    stationary_sum,
    taylor_decompose,
)
from flowpde.kernels import SpectralKernel, chi, chi_prime, convolve, fluctuation_kernel
from flowpde.lattice import SPACE_TIME, Field, LatticeSpec
from flowpde.model import RenormScheme, evaluate_force, preset
from flowpde.noise import NoiseModel, sample_macroscopic_noise

CT_DESK = {(1, 1, ((0,),)): 0.0}


def test_pairing_count_known_values():
    assert pairing_count(2, 1) == 1
    assert pairing_count(3, 1) == 3
    assert pairing_count(4, 1) == 6
    assert pairing_count(4, 2) == 3
    assert pairing_count(6, 3) == 15


def test_tadpole_monotone_in_mu(desk_spec, desk_noise):
    wick = WickCalculator(desk_spec, desk_noise)
    vals = [wick.tadpole(mu) for mu in (0.1, 0.3, 1.0)]
    assert 0.0 < vals[0] < vals[1] < vals[2]


def _reference_spectrum(wick, mult, lo, n_pad):
    """Full-column reference: rfft along time of the quadrature-weighted
    kernel slices (half weight at a t = 0 tap), one column per mode, placed
    at their absolute positions and convolved with the mollifier taps."""
    w = np.full(len(mult), wick.spec.dt)
    if lo == 0:
        w[0] = 0.5 * wick.spec.dt
    arr = np.zeros((lo + len(mult), mult.shape[1]))
    arr[lo:] = w[:, None] * mult
    return np.fft.rfft(arr, n=n_pad, axis=0) * np.fft.rfft(wick.taps, n=n_pad)[:, None]


def _reference_pairing(wick, H1, H2, n_pad):
    """< (K1 * Xi) (K2 * Xi) > by Parseval over time, then the mhat2-weighted
    sum over every mode."""
    prod = (H1.conj() * H2).real
    val = 2.0 * prod.sum(axis=0) - prod[0]
    if n_pad % 2 == 0:
        val -= prod[-1]
    val /= n_pad
    return float(wick.prefactor * np.sum(wick.mhat2 * val))


def _reference_fluct(wick, mu):
    dt = wick.spec.dt
    t = dt * np.arange(int(np.ceil(2.0 * mu / dt)) + 1)
    return (1.0 - chi(t / mu))[:, None] * np.exp(-np.outer(t, wick.k_sigma))


def _reference_node(wick, mu):
    """C(mu) and D(mu) with each kernel built on its own slices and one
    column per mode, each side of each pairing transformed separately (the
    two-sided cross sum)."""
    dt = wick.spec.dt
    hi = int(np.ceil(2.0 * mu / dt))
    lo = int(np.floor(mu / dt))
    fluct = _reference_fluct(wick, mu)
    t_dot = dt * np.arange(lo, hi + 1)
    dot = (-(t_dot / mu**2) * chi_prime(t_dot / mu))[:, None] * np.exp(-np.outer(t_dot, wick.k_sigma))
    n_pad = 1 << int(np.ceil(np.log2(hi + 1 + len(wick.taps) + 1)))

    def cross(m1, lo1, m2, lo2):
        H1 = _reference_spectrum(wick, m1, lo1, n_pad)
        H2 = _reference_spectrum(wick, m2, lo2, n_pad)
        return _reference_pairing(wick, H1, H2, n_pad)

    return cross(fluct, 0, fluct, 0), cross(fluct, 0, dot, lo)


def _reference_covariance(wick, n_lags):
    """covariance_kernel with one column per mode."""
    fluct = _reference_fluct(wick, 1.0)
    n_pad = 1 << int(np.ceil(np.log2(2 * (len(fluct) + len(wick.taps) + n_lags))))
    H = _reference_spectrum(wick, fluct, 0, n_pad)
    auto = np.fft.irfft(np.abs(H) ** 2, n=n_pad, axis=0)
    out_hat = auto[:n_lags] * (wick.prefactor * wick.mhat2[None])
    spec = wick.spec
    field_hat = (out_hat * spec.n**spec.d).reshape((n_lags, *spec.space_shape())).astype(complex)
    return np.fft.ifftn(field_hat, axes=tuple(range(1, spec.d + 1))).real


@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(1, 256, 0.0025, 0.0, 0.5, 0.5), LatticeSpec(2, 16, 0.01, 0.0, 0.5, 0.5)],
    ids=["criterion7-d1", "d2"],
)
@pytest.mark.parametrize("family", ["bump", "skew"])
def test_distinct_k_layout_equals_full_column_reference(spec, family):
    """The Wick sums run on the distinct values of |k|^sigma (129 of 256
    modes on criterion 7's lattice; in d = 2 several k share one |k| off
    the axes too) and equal the one-column-per-mode formula bit for bit."""
    kernels = KernelSpectra(spec)
    assert len(kernels.k_sigma) < spec.n**spec.d
    for nu in (0.2, 0.1, 0.05):
        wick = WickCalculator(spec, NoiseModel("mollified_white", nu, 11, family), kernels)
        for mu in (2.0**-8, 0.013, 0.37, 1.0):
            assert wick.flow_node(mu) == _reference_node(wick, mu)
            assert wick.tadpole(mu) == _reference_node(wick, mu)[0]
        n_lags = min(int(np.ceil(2.0 / spec.dt)) + 1, spec.nt)
        P, P_ref = wick.covariance_kernel(n_lags), _reference_covariance(wick, n_lags)
        # the memory order too: the sunset integrals sum over P in it
        assert np.array_equal(P, P_ref) and P.strides == P_ref.strides


@pytest.mark.parametrize("n, dt", [(64, 0.02), (256, 0.0025)])
def test_flow_node_equals_tadpole_and_derivative(n, dt, desk_noise):
    """The flow's per-node C and D, from one spectrum per kernel, equal the
    tadpole and its derivative exactly."""
    wick = WickCalculator(LatticeSpec(1, n, dt, -2.0, 1.0, 0.5), desk_noise)
    for mu in (2.0**-8, 0.013, 0.1, 0.37, 0.5, 1.0):
        c, d = wick.flow_node(mu)
        assert c == wick.tadpole(mu)
        assert d == wick.tadpole_derivative_half(mu)
        assert (c, d) == _reference_node(wick, mu)


def test_tadpole_matches_monte_carlo(desk_spec, desk_noise):
    """The deterministic quadratic-form value against a direct simulation:
    variance of (G - G_mu) * noise in the saturated part of the window."""
    mu = 0.3
    target = WickCalculator(desk_spec, desk_noise).tadpole(mu)
    ker = fluctuation_kernel(desk_spec, mu)
    per_sample = []
    for i in range(80):
        xi = sample_macroscopic_noise(desk_noise, desk_spec, i)
        conv = convolve(ker, xi)
        # discard the ramp-up: kernel support is [0, 2 mu]
        sat = conv.data[desk_spec.nt // 2 :]
        per_sample.append(float(np.mean(sat**2)))
    est = float(np.mean(per_sample))
    se = float(np.std(per_sample, ddof=1) / np.sqrt(len(per_sample)))
    assert est == pytest.approx(target, abs=4 * se)


def test_effective_force_semigroup_identity(desk_model, rng):
    """F at scale mu equals F at scale eta applied to the field shifted by
    (G_eta - G_mu) * F, order by order in the coupling."""
    spec = LatticeSpec(1, 32, 0.02, -2.0, 1.0, 0.5)
    xi = Field(spec, rng.standard_normal((spec.nt, spec.n)), SPACE_TIME)
    phi = Field(spec, rng.standard_normal((spec.nt, spec.n)), SPACE_TIME)
    mu, eta = 0.2, 0.6
    i_max = 2
    fm = effective_force_series(desk_model, CT_DESK, xi, {0: phi}, i_max, mu=mu)
    dker = SpectralKernel(
        spec,
        fluctuation_kernel(spec, mu).mult - fluctuation_kernel(spec, eta).mult,
        kind="difference",
    )
    shifts = {k: convolve(dker, fm[k]) for k in fm}
    phi_eta = {0: Field(spec, phi.data + shifts[0].data, SPACE_TIME)}
    for k in range(1, i_max + 1):
        phi_eta[k] = shifts[k]
    fe = effective_force_series(desk_model, CT_DESK, xi, phi_eta, i_max, mu=eta)
    for k in range(i_max + 1):
        scale = max(np.max(np.abs(fm[k].data)), 1.0)
        assert np.max(np.abs(fm[k].data - fe[k].data)) / scale < 1e-10


def test_stationary_residual_scales_with_coupling(desk_noise):
    """Truncating the stationary hierarchy at order I leaves a fixed-point
    residual of size lambda^(I+1)."""
    spec = LatticeSpec(1, 32, 0.02, -2.0, 1.0, 0.5)
    i_max = 1
    xi = sample_macroscopic_noise(desk_noise, spec, 0)
    model = preset("phi4_desk", lam=1.0, noise=desk_noise)
    expansion = expand_pathwise(model, CT_DESK, xi, i_max)
    ker = fluctuation_kernel(spec, 1.0)
    norms = []
    for lam in (0.1, 0.05):
        m = replace(model, lam=lam)
        psi = stationary_sum(expansion, lam, i_max)
        force = evaluate_force(m, CT_DESK, psi, xi, desk_noise.nu)
        resid = psi.data - convolve(ker, force).data
        sat = resid[spec.nt // 2 :]
        norms.append(float(np.max(np.abs(sat))))
    ratio = norms[0] / norms[1]
    assert 2.0 ** (i_max + 1) == pytest.approx(ratio, rel=0.3)


def test_flow_expected_validations(desk_model, desk_spec):
    scheme = RenormScheme.for_model(desk_model)
    with pytest.raises(ValidationFault, match="cannot determine"):
        flow_expected(desk_model, desk_spec, 0.1, scheme, j_levels=4, i_max=0)
    with pytest.raises(ValidationFault, match="non-relevant"):
        flow_expected(
            desk_model,
            desk_spec,
            0.1,
            RenormScheme(values=(((7, 1, ((0,),)), 0.0),)),
            j_levels=4,
        )


@pytest.mark.parametrize(
    "levels",
    [dict(j_levels=0), dict(j_levels=-1), dict(nodes_per_octave=0), dict(nodes_per_octave=-2)],
)
def test_flow_expected_rejects_an_empty_quadrature(desk_model, desk_spec, levels):
    scheme = RenormScheme.for_model(desk_model)
    with pytest.raises(ValidationFault, match="must be at least 1"):
        flow_expected(desk_model, desk_spec, 0.1, scheme, **levels)


def test_flow_expected_desk_counterterm(desk_model, desk_spec):
    scheme = RenormScheme.for_model(desk_model)
    coeffs, ct = flow_expected(
        desk_model, desk_spec, 0.1, scheme, j_levels=6, nodes_per_octave=8
    )
    key = (1, 1, ((0,),))
    assert set(ct.entries) == {key}
    assert np.isfinite(ct.entries[key])
    assert ct.nu == 0.1
    assert ct.provenance[key] in ("flow_integrated", "oracle")
    # the stored tadpole anchor must agree with the direct Wick value
    wick = WickCalculator(desk_spec, desk_model.noise.with_nu(0.1))
    assert ct.diagnostics["tadpole_C1"] == pytest.approx(wick.tadpole(1.0), rel=1e-10)
    assert key in coeffs.expected
    mus, vals = coeffs.expected[key]
    assert len(mus) == len(vals) > 0


def test_apply_moment_zero_index_is_identity(rng):
    spec = LatticeSpec(1, 8, 0.1, 0.0, 0.4, 0.5)
    P = spec.nt * spec.n
    V = CoefKernel(spec, rng.standard_normal(P), 1)
    W = apply_moment(V, [(0, 0)])
    np.testing.assert_array_equal(W.data, V.data)


def test_taylor_decompose_reconstructs(rng):
    spec = LatticeSpec(1, 16, 0.05, 0.0, 0.4, 0.5)
    t_off_x = np.linspace(0, 1, spec.nt * spec.n)
    data = np.exp(-10.0 * (t_off_x - 0.3) ** 2) * (1.0 + 0.1 * rng.standard_normal(t_off_x.size))
    V = CoefKernel(spec, data, 1)
    out = taylor_decompose(V, (0, 0), 2, n_tau=16)
    scale = float(np.max(np.abs(out["direct"].data)))
    assert out["max_error"] / scale < 1e-6
