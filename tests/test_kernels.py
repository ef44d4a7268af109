import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpde.errors import ValidationFault
from flowpde.kernels import (
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
from flowpde.lattice import SPACE_ONLY, SPACE_TIME, Field, LatticeSpec


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
