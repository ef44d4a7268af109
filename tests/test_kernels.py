import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpde import kernels
from flowpde.errors import ValidationFault
from flowpde.kernels import (
    DEFAULT_EPS,
    SpectralKernel,
    apply_K,
    apply_P,
    chi,
    chi_prime,
    convolve,
    cutoff_heat,
    default_g,
    dot_G,
    dot_G_moment_norms,
    dot_weight,
    fit_loglog_slope,
    fluctuation_kernel,
    heat_multiplier,
    heat_propagate,
    invariant_battery,
    reconstruct_G,
)
from flowpde.lattice import (
    SPACE_ONLY,
    SPACE_TIME,
    Field,
    LatticeSpec,
    irfft_space,
    padded_length,
    rfft_space,
)


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
    heat = heat_multiplier(desk_spec, desk_spec.dt * np.arange(desk_spec.nt))
    np.testing.assert_allclose(total, heat, atol=1e-14)


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


def _per_cell_reconstruction(spec, f, T, cells_per_octave, n_octaves=14):
    """Reference for reconstruct_G: G_T * f less dmu dG_mid * f, one
    convolution per cell."""
    acc = convolve(cutoff_heat(spec, T), f).data.copy()
    edges = T * 2.0 ** (-np.arange(0, n_octaves * cells_per_octave + 1) / cells_per_octave)
    for hi_e, lo_e in zip(edges[:-1], edges[1:]):
        acc -= (hi_e - lo_e) * convolve(dot_G(spec, np.sqrt(hi_e * lo_e)), f).data
    return acc


@pytest.mark.parametrize("cells", [8, 16])
def test_reconstruction_is_one_convolution_of_the_summed_kernel(cells, rng, monkeypatch):
    spec = LatticeSpec(1, 32, 0.01, -1.0, 1.0, 0.5)
    f = Field(spec, rng.standard_normal((spec.nt, spec.n)), SPACE_TIME)
    reference = _per_cell_reconstruction(spec, f, 0.5, cells)
    calls = []
    monkeypatch.setattr(kernels, "convolve", lambda *a: calls.append(1) or convolve(*a))
    recon, direct = reconstruct_G(spec, f, T=0.5, cells_per_octave=cells)
    assert len(calls) == 2  # the direct cutoff and the summed kernel
    tol = 1e-12 * np.max(np.abs(direct.data))
    np.testing.assert_allclose(recon.data, reference, rtol=0, atol=tol)


def test_moment_norm_raw_slope(desk_spec):
    from flowpde.kernels import spacetime_degree

    # at sigma = 1/2 only the zero multi-index clears the degree cap
    a = (0, 0)
    mu_grid = 0.5 * 2.0 ** -np.arange(4)
    rows = dot_G_moment_norms(desk_spec, mu_grid, (a,))[a]
    lams = [desk_spec.scale_of(r["mu"]) for r in rows]
    slope = fit_loglog_slope(lams, [r["raw"] for r in rows])
    assert slope == pytest.approx(spacetime_degree(a, desk_spec.sigma), abs=0.1)


def test_moment_index_degree_cap(desk_spec):
    with pytest.raises(ValidationFault, match="truncation depth"):
        dot_G_moment_norms(desk_spec, [0.5], ((0, 1),))


def test_moment_norms_take_a_tuple_of_indices(desk_spec):
    with pytest.raises(ValidationFault, match="multi-index 0"):
        dot_G_moment_norms(desk_spec, [0.5], (0, 0))


@pytest.mark.parametrize(
    "mu_grid, nt_local, match",
    [
        ([0.25, 0.0], 48, "positive and finite"),
        ([-0.25], 48, "positive and finite"),
        ([0.25, float("nan")], 48, "positive and finite"),
        ([float("inf")], 48, "positive and finite"),
        # one slice has no spacing; two are both support ends, where dG_mu vanishes
        ([0.25], 1, "at least 3"),
        ([0.25], 2, "at least 3"),
    ],
    ids=["mu-zero", "mu-negative", "mu-nan", "mu-inf", "nt_local-1", "nt_local-2"],
)
def test_moment_norms_reject_misuse(desk_spec, mu_grid, nt_local, match):
    with pytest.raises(ValidationFault, match=match):
        dot_G_moment_norms(desk_spec, mu_grid, ((0, 0),), nt_local=nt_local)


def _full_grid_moment_norms(spec, mu_grid, a, nt_local):
    """Reference for dot_G_moment_norms: the formula it had before the half
    spectrum, the time blocks and the shared heat stack -- one index, the
    weighted kernel on the full frequency grid (its own heat table), complex
    ifftn and np.gradient, every slice at once.  Equal to rtol 1e-12."""
    g = default_g(spec.sigma)
    ks = spec.k_norm()
    r_mult = 1.0 + ks ** (spec.sigma - DEFAULT_EPS)  # nu = 1
    axes = tuple(range(-spec.d, 0))
    per_slice = (...,) + (None,) * spec.d
    rows = []
    for mu in mu_grid:
        t = np.linspace(mu, 2.0 * mu, nt_local)
        dtl = t[1] - t[0]
        w = dot_weight(t, mu)[per_slice] * np.exp(-t[per_slice] * ks**spec.sigma)
        w = w * t[per_slice] ** a[0] / math.factorial(a[0])
        for axis, deg in zip(axes, a[1:]):
            for _ in range(deg):
                w = (np.roll(w, 1, axis) - np.roll(w, -1, axis)) / 2j
            w = w / math.factorial(deg)

        def l1(m):
            return float(np.sum(np.abs(np.fft.ifftn(m, axes=axes).real))) * spec.dx**spec.d * dtl

        wk = w * (1.0 + spec.scale_of(mu) ** 2 * ks**2) ** g * r_mult
        for _ in range(g):
            wk = wk + mu * np.gradient(wk, dtl, axis=0)
        rows.append((l1(w), l1(wk)))
    return rows


# a: the multi-indices of one call
@pytest.mark.parametrize(
    "d, n, sigma, a",
    [
        (1, 64, 0.5, ((0, 0),)),
        (2, 64, 2.0, ((0, 0, 0),)),
        (2, 64, 2.0, ((1, 0, 0),)),
        (2, 64, 2.0, ((0, 1, 0),)),
        # a weight on the last axis shifts across the rfft half's edges
        (2, 64, 2.0, ((0, 0, 1),)),
        # two shifts on the last axis: the second sees the odd table
        (3, 16, 3.0, ((0, 1, 0, 1), (0, 0, 0, 2))),
        # every index of the lattice in one call, from one heat table
        (2, 64, 2.0, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))),
        # n = 4: the orthant is [0, 2]^d, so the sin-shift edge rules touch
        # both ends of every axis; all four admissible indices in one call
        (2, 4, 1.5, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))),
        (3, 4, 3.0, ((0, 1, 0, 1), (0, 0, 0, 2))),
        # two shifts on a non-last axis, and one shift on each axis
        (2, 8, 2.0, ((0, 2, 0), (0, 1, 1))),
    ],
)
def test_moment_norms_equal_full_grid_formula(d, n, sigma, a):
    spec = LatticeSpec(d, n, 0.02, 0.0, 1.0, sigma)
    mu_grid = 2.0 ** -np.arange(2, 6, dtype=float)
    norms = dot_G_moment_norms(spec, mu_grid, a, nt_local=48)
    assert list(norms) == list(a)
    for index, rows in norms.items():
        reference = _full_grid_moment_norms(spec, mu_grid, index, 48)
        for row, (raw, dressed) in zip(rows, reference, strict=True):
            assert row["raw"] == pytest.approx(raw, rel=1e-12, abs=0)
            assert row["dressed"] == pytest.approx(dressed, rel=1e-12, abs=0)


# Peak traced allocation of one mu on the battery's d = 2, n = 256 lattice:
# 169 MiB with a = (0, 0, 0) and 265 MiB with a = (0, 1, 0) for the
# full-grid formula; about 43 MiB on the rfft half of the last axis, and
# about 23 MiB on the parity orthant [0, n/2]^2, for either alone and for
# the battery's three indices in one call, which share one heat stack.
# The first bounds are half the full-grid peaks; the last holds the
# battery's call to the orthant's footprint.
BATTERY_INDICES = ((0, 0, 0), (1, 0, 0), (0, 1, 0))


@pytest.mark.parametrize(
    "a, bound_mib",
    [(((0, 0, 0),), 84), (((0, 1, 0),), 132), (BATTERY_INDICES, 84), (BATTERY_INDICES, 32)],
)
def test_moment_norms_peak_memory(a, bound_mib):
    spec = LatticeSpec(2, 256, 0.02, 0.0, 1.0, 2.0)
    tracemalloc.start()
    try:
        dot_G_moment_norms(spec, [2.0**-5], a, nt_local=48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20, f"peak {peak / 2**20:.1f} MiB"


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
    kernel FFT per call, on the rfft half.  convolve must match it bit for
    bit."""
    spec = f.spec
    fhat = rfft_space(f.data, spec.d)
    nt = spec.nt
    hi = min(kernel.support_hi, nt - 1)
    km = kernel.mult[: hi + 1]
    m = padded_length(nt + hi + 1)
    kk = np.zeros((m,) + km.shape[1:], dtype=complex)
    kk[: hi + 1] = km
    ff = np.zeros((m,) + fhat.shape[1:], dtype=complex)
    ff[:nt] = fhat
    conv = np.fft.ifft(np.fft.fft(kk, axis=0) * np.fft.fft(ff, axis=0), axis=0)[:nt]
    out = spec.dt * conv - 0.5 * spec.dt * kernel.mult[0] * fhat
    return irfft_space(out, spec)


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
    # a writable kernel takes the same path, uncached
    custom = SpectralKernel(spec, 2.0 * ker.mult, support_hi=ker.support_hi)
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


def _trapezoid_convolve(mult, f):
    """Direct causal quadrature per Fourier mode of the full grid, by complex
    FFTs: out[j] = sum over the taps l <= min(j, len(mult) - 1) of
    w_l mult[l] fhat[j - l], with w_0 = dt/2 and w_l = dt otherwise."""
    spec = f.spec
    axes = tuple(range(1, spec.d + 1))
    fhat = np.fft.fftn(f.data, axes=axes)
    out = np.zeros_like(fhat)
    for j in range(spec.nt):
        for tap in range(min(j, len(mult) - 1) + 1):
            w = 0.5 * spec.dt if tap == 0 else spec.dt
            out[j] += w * mult[tap] * fhat[j - tap]
    return np.fft.ifftn(out, axes=axes).real


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
    """convolve equals the full-grid complex quadrature to 1e-12 of its
    largest value, or faults on a kernel of another lattice."""
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
    # a random Hermitian multiplier on the full grid, cut to the rfft half
    shape = (support + 1, *k_spec.space_shape())
    mult = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes = tuple(range(1, k_spec.d + 1))
    mult = 0.5 * (mult + np.roll(np.flip(mult, axes), 1, axes).conj())
    kernel = SpectralKernel(k_spec, mult[..., : k_spec.n // 2 + 1])
    f = Field(spec, rng.standard_normal((spec.nt, *spec.space_shape())), SPACE_TIME)
    if mismatch is not None:
        with pytest.raises(ValidationFault):
            convolve(kernel, f)
        return
    ref = _trapezoid_convolve(mult, f)
    np.testing.assert_allclose(convolve(kernel, f).data, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def test_outputs_are_contiguous_and_own_their_data(desk_spec, rng):
    """A transformed field holds a contiguous real copy, not a strided view
    that keeps the complex transform alive."""
    f = Field(desk_spec, rng.standard_normal((desk_spec.nt, desk_spec.n)), SPACE_TIME)
    for out in (convolve(fluctuation_kernel(desk_spec, 0.3), f), apply_K(f, 0.05)):
        assert out.data.flags.c_contiguous and out.data.flags.owndata
