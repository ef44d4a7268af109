import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpde.errors import ValidationFault
from flowpde.kernels import (
    SpectralKernel,
    apply_K,
    apply_P,
    chi,
    chi_prime,
    convolve,
    cutoff_heat,
    dot_G,
    dot_G_moment_norms,
    fit_loglog_slope,
    fluctuation_kernel,
    heat_kernel,
    heat_multiplier,
    heat_propagate,
    invariant_battery,
    kernel_l1_norm,
    reconstruct_G,
)
from flowpde.lattice import SPACE_ONLY, SPACE_TIME, Field, LatticeSpec, forward_transform, inverse_transform


def test_chi_plateaus_and_monotone():
    t = np.linspace(-1.0, 4.0, 401)
    c = chi(t)
    assert np.all(c[t <= 1.0] == 0.0)
    assert np.all(np.abs(c[t >= 2.0] - 1.0) < 1e-15)
    assert np.all(np.diff(c) >= -1e-12)
    assert np.all(chi_prime(t[(t < 0.9) | (t > 2.1)]) == 0.0)


def test_heat_multiplier_semigroup(desk_spec):
    s, t = 0.13, 0.29
    lhs = heat_multiplier(desk_spec, np.array([s + t]))[0]
    rhs = heat_multiplier(desk_spec, np.array([s]))[0] * heat_multiplier(
        desk_spec, np.array([t])
    )[0]
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_heat_propagate_kills_high_modes(desk_spec, rng):
    f = Field(desk_spec, rng.standard_normal(desk_spec.n), SPACE_ONLY)
    # sigma = 1/2 dissipates the |k| = 1 mode like e^{-t}, so go far out
    g = heat_propagate(f, 40.0)
    # after long times only the zero mode survives (dissipation)
    assert np.ptp(g.data) < 1e-6
    assert np.mean(g.data) == pytest.approx(np.mean(f.data), abs=1e-12)


def test_cutoff_plus_fluctuation_is_heat(desk_spec):
    mu = 0.25
    total = cutoff_heat(desk_spec, mu).mult + fluctuation_kernel(desk_spec, mu).mult
    np.testing.assert_allclose(total, heat_kernel(desk_spec).mult, atol=1e-14)


def test_dot_g_support(desk_spec):
    mu = 0.2
    ker = dot_G(desk_spec, mu)
    t = desk_spec.dt * np.arange(ker.n_slices())
    amp = np.max(np.abs(ker.mult), axis=-1)
    outside = (t <= mu) | (t >= 2.0 * mu)
    assert np.all(amp[outside] == 0.0)
    assert amp[~outside].max() > 0.0


def test_pk_inverse_pair(desk_spec, rng):
    f = Field(desk_spec, rng.standard_normal(desk_spec.n), SPACE_ONLY)
    g = apply_P(apply_K(f, 0.05, g=2), 0.05, g=2)
    np.testing.assert_allclose(g.data, f.data, atol=1e-10)


def test_convolution_is_linear(desk_spec, rng):
    ker = fluctuation_kernel(desk_spec, 0.3)
    a = Field(desk_spec, rng.standard_normal((desk_spec.nt, desk_spec.n)), SPACE_TIME)
    b = Field(desk_spec, rng.standard_normal((desk_spec.nt, desk_spec.n)), SPACE_TIME)
    lhs = convolve(ker, Field(desk_spec, 2.0 * a.data - 3.0 * b.data, SPACE_TIME)).data
    rhs = 2.0 * convolve(ker, a).data - 3.0 * convolve(ker, b).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_convolution_is_causal(desk_spec):
    data = np.zeros((desk_spec.nt, desk_spec.n))
    j0 = desk_spec.nt // 2
    data[j0] = 1.0
    out = convolve(fluctuation_kernel(desk_spec, 0.3), Field(desk_spec, data, SPACE_TIME))
    assert np.max(np.abs(out.data[:j0])) < 1e-14


def test_kernel_requires_positive_mu(desk_spec):
    for ctor in (cutoff_heat, fluctuation_kernel, dot_G):
        with pytest.raises(ValidationFault):
            ctor(desk_spec, -0.1)


def test_l1_norm_positive(desk_spec):
    assert kernel_l1_norm(fluctuation_kernel(desk_spec, 0.3)) > 0.0


def test_fit_loglog_slope_exact_power_law():
    xs = np.array([0.4, 0.2, 0.1, 0.05])
    ys = 3.7 * xs**1.25
    assert fit_loglog_slope(xs, ys) == pytest.approx(1.25, abs=1e-12)


def test_reconstruction_error_halves(rng):
    spec = LatticeSpec(1, 32, 0.01, -1.0, 1.0, 0.5)
    f = Field(spec, rng.standard_normal((spec.nt, spec.n)), SPACE_TIME)
    errs = []
    for cells in (8, 16):
        recon, direct = reconstruct_G(spec, f, T=0.5, cells_per_octave=cells)
        errs.append(float(np.max(np.abs(recon.data - direct.data))))
    assert errs[1] <= 0.55 * errs[0]


def test_moment_norm_raw_slope(desk_spec):
    from flowpde.kernels import spacetime_degree

    # at sigma = 1/2 only the zero multi-index clears the degree cap
    a = (0, 0)
    mu_grid = 0.5 * 2.0 ** -np.arange(4)
    rows = dot_G_moment_norms(desk_spec, mu_grid, a)
    lams = [desk_spec.scale_of(r["mu"]) for r in rows]
    slope = fit_loglog_slope(lams, [r["raw"] for r in rows])
    assert slope == pytest.approx(spacetime_degree(a, desk_spec.sigma), abs=0.1)


def test_moment_index_degree_cap(desk_spec):
    with pytest.raises(ValidationFault, match="truncation depth"):
        dot_G_moment_norms(desk_spec, [0.5], (0, 1))


def test_battery_all_pass():
    rows = invariant_battery(d=1, sigma=0.5, n=32)
    assert rows, "battery produced no rows"
    failures = [r for r in rows if not r["pass"]]
    assert not failures, failures


def test_convolution_rejects_dt_mismatch(rng):
    """A kernel's time slices are only meaningful at the dt they were
    sampled at."""
    ker = fluctuation_kernel(LatticeSpec(1, 32, 0.02, -2.0, 1.0, 0.5), 0.3)
    coarse = LatticeSpec(1, 32, 0.1, -2.0, 1.0, 0.5)
    f = Field(coarse, rng.standard_normal((coarse.nt, coarse.n)), SPACE_TIME)
    with pytest.raises(ValidationFault, match="dt"):
        convolve(ker, f)


def _axis0_convolve(kernel, f):
    """Reference for the space-time branch of convolve: the same quadrature
    with its time FFTs along axis 0 of (nt, space...) arrays and a fresh
    kernel FFT per call.  convolve must match it bit for bit."""
    spec = f.spec
    fhat = forward_transform(f)
    nt = spec.nt
    hi = min(kernel.support_hi, nt - 1)
    km = kernel.mult[: hi + 1]
    m = 1
    while m < nt + hi + 1:
        m *= 2
    kk = np.zeros((m,) + km.shape[1:], dtype=complex)
    kk[: hi + 1] = km
    ff = np.zeros((m,) + fhat.shape[1:], dtype=complex)
    ff[:nt] = fhat
    conv = np.fft.ifft(np.fft.fft(kk, axis=0) * np.fft.fft(ff, axis=0), axis=0)[:nt]
    out = spec.dt * conv - 0.5 * spec.dt * kernel.mult[0] * fhat
    return inverse_transform(spec, out, SPACE_TIME).data


CONVOLVE_SPECS = [
    LatticeSpec(1, 256, 0.0025, -2.0, 0.5, 0.5),  # criterion 7's noise window
    LatticeSpec(1, 64, 0.02, -0.5, 0.5, 0.5),
    LatticeSpec(2, 16, 0.02, 0.0, 1.0, 1.5),
]


@pytest.mark.parametrize("spec", CONVOLVE_SPECS)
@pytest.mark.parametrize("mu", [0.1, 1.0])  # support 2 mu shorter / longer than the window
def test_time_last_convolve_equals_axis0_reference(spec, mu, rng):
    f = Field(spec, rng.standard_normal((spec.nt, *spec.space_shape())), SPACE_TIME)
    ker = fluctuation_kernel(spec, mu)
    assert (ker.support_hi < spec.nt - 1) == (2.0 * mu < spec.t_max - spec.t_min)
    np.testing.assert_array_equal(convolve(ker, f).data, _axis0_convolve(ker, f))
    # a writable kernel with complex slices takes the same path, uncached
    mult = ker.mult * (1.0 + 0.5j)
    custom = SpectralKernel(spec, mult, support_hi=ker.support_hi)
    np.testing.assert_array_equal(convolve(custom, f).data, _axis0_convolve(custom, f))
    assert custom._spectrum is None


def test_repeated_convolve_reuses_the_kernel_spectrum(rng, monkeypatch):
    spec = CONVOLVE_SPECS[1]
    fluctuation_kernel.cache_clear()
    ker = fluctuation_kernel(spec, 1.0)
    assert fluctuation_kernel(spec, 1.0) is ker
    calls = []  # time-axis transforms: the in-place ones (spatial ones are not)
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **k: calls.append("out" in k) or fft(*a, **k))
    fields = [Field(spec, rng.standard_normal((spec.nt, spec.n)), SPACE_TIME) for _ in range(2)]
    first = convolve(ker, fields[0]).data
    assert sum(calls) == 2  # the kernel's spectrum and the field's
    spectrum = ker._spectrum[1]
    again = convolve(ker, fields[0]).data
    other = convolve(ker, fields[1]).data
    assert sum(calls) == 4  # one per field from here on
    assert ker._spectrum[1] is spectrum
    np.testing.assert_array_equal(again, first)
    np.testing.assert_array_equal(other, _axis0_convolve(ker, fields[1]))


def test_cached_fluctuation_kernel_is_read_only(rng):
    spec = CONVOLVE_SPECS[1]
    ker = fluctuation_kernel(spec, 1.0)
    convolve(ker, Field(spec, rng.standard_normal((spec.nt, spec.n)), SPACE_TIME))
    for arr in (ker.mult, ker._spectrum[1]):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _trapezoid_convolve(kernel, f):
    """Direct causal quadrature per Fourier mode: out[j] = sum over the taps
    l <= min(j, support_hi) of w_l mult[l] fhat[j - l], with w_0 = dt/2 and
    w_l = dt otherwise."""
    spec = f.spec
    fhat = forward_transform(f)
    out = np.zeros_like(fhat)
    for j in range(spec.nt):
        for tap in range(min(j, kernel.support_hi) + 1):
            w = 0.5 * spec.dt if tap == 0 else spec.dt
            out[j] += w * kernel.mult[tap] * fhat[j - tap]
    return inverse_transform(spec, out, SPACE_TIME).data


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    n=st.sampled_from([4, 8, 16]),
    nt=st.integers(2, 40),
    support=st.integers(0, 50),
    mismatch=st.sampled_from([None, None, None, "d", "n", "sigma", "dt"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_convolve_agrees_with_trapezoid_quadrature_or_raises(d, n, nt, support, mismatch, seed):
    dt = 0.05
    spec = LatticeSpec(d, n, dt, 0.0, dt * (nt - 1), 0.5)
    rng = np.random.default_rng(seed)
    k_spec = {
        None: spec,
        "d": LatticeSpec(3 - d, n, dt, 0.0, spec.t_max, 0.5),
        "n": LatticeSpec(d, 2 * n, dt, 0.0, spec.t_max, 0.5),
        "sigma": LatticeSpec(d, n, dt, 0.0, spec.t_max, 0.75),
        "dt": LatticeSpec(d, n, 2 * dt, 0.0, 2 * spec.t_max, 0.5),
    }[mismatch]
    shape = (support + 1, *k_spec.space_shape())
    kernel = SpectralKernel(k_spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    f = Field(spec, rng.standard_normal((spec.nt, *spec.space_shape())), SPACE_TIME)
    if mismatch is not None:
        with pytest.raises(ValidationFault):
            convolve(kernel, f)
        return
    ref = _trapezoid_convolve(kernel, f)
    np.testing.assert_allclose(convolve(kernel, f).data, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
