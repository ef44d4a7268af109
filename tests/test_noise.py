import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpde.errors import ValidationFault
from flowpde.lattice import LatticeSpec
from flowpde.noise import (
    MollifierProfile,
    NoiseModel,
    _cached_multiplier,
    _spatial_multiplier,
    _temporal_taps,
    estimate_cumulants,
    extended_window,
    sample_macroscopic_noise,
    shot_third_cumulant_oracle,
    substream,
    white_noise_slab,
)

SPEC = LatticeSpec(1, 32, 0.01, 0.0, 0.4, 0.5)


def test_substream_determinism():
    a = substream(7, 3, "white").standard_normal(5)
    b = substream(7, 3, "white").standard_normal(5)
    c = substream(7, 4, "white").standard_normal(5)
    d = substream(7, 3, "shot").standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


@pytest.mark.parametrize("family", ["bump", "skew"])
def test_mollifier_profiles_normalized(family):
    prof = MollifierProfile(family)
    u = np.linspace(-2, 2, 40001)
    du = u[1] - u[0]
    assert np.sum(prof.temporal(u)) * du == pytest.approx(1.0, abs=1e-4)
    assert np.sum(prof.spatial(u)) * du == pytest.approx(1.0, abs=1e-4)
    # causal temporal support and compact spatial support
    assert np.all(prof.temporal(u[u < 0]) == 0.0)
    assert np.all(prof.spatial(u[np.abs(u) > 0.5]) == 0.0)
    assert prof.spatial_hat(np.zeros(1))[0] == pytest.approx(1.0, abs=1e-6)


def test_unknown_family_faults():
    with pytest.raises(ValidationFault):
        MollifierProfile("sinc")


def test_noise_model_validation():
    with pytest.raises(ValidationFault):
        NoiseModel("pink", 0.1, 0)
    with pytest.raises(ValidationFault):
        NoiseModel("mollified_white", 1.5, 0)


def test_resolution_policy_strict():
    coarse = LatticeSpec(1, 16, 0.05, 0.0, 0.4, 0.5)
    model = NoiseModel("mollified_white", 0.05, 0, "bump")
    with pytest.raises(ValidationFault, match="under-resolves"):
        sample_macroscopic_noise(model, coarse, 0)
    spectral = NoiseModel("mollified_white", 0.05, 0, "bump", resolution_policy="spectral")
    sample_macroscopic_noise(spectral, coarse, 0)  # policy waives the check


def test_sample_reproducible_and_index_dependent():
    model = NoiseModel("mollified_white", 0.1, 3, "bump", resolution_policy="spectral")
    f1 = sample_macroscopic_noise(model, SPEC, 0)
    f2 = sample_macroscopic_noise(model, SPEC, 0)
    g = sample_macroscopic_noise(model, SPEC, 1)
    np.testing.assert_array_equal(f1.data, f2.data)
    assert not np.allclose(f1.data, g.data)


def test_extended_window_keeps_grid():
    ext = extended_window(SPEC, 0.123)
    assert ext.t_max == SPEC.t_max
    assert ext.t_min <= SPEC.t_min - 0.123
    # the padding is a whole number of steps so times line up
    assert abs((SPEC.t_min - ext.t_min) / SPEC.dt % 1.0) < 1e-9


def test_white_noise_variance_scaling():
    """Mollified white noise at lag 0: variance matches the discrete
    convolution-squared of the mollifier against 1/(dt dx) white noise."""
    model = NoiseModel("mollified_white", 0.1, 5, "bump", resolution_policy="spectral")
    fields = [sample_macroscopic_noise(model, SPEC, i) for i in range(150)]
    est = estimate_cumulants(fields, 2, [(0, 0)])
    # independent prediction from the sampling contract: the temporal taps
    # and spatial multiplier are deterministic, so Var = dt * sum(taps^2)
    # * mean(mult^2) / dx
    from flowpde.noise import _spatial_multiplier, _temporal_taps

    taps = _temporal_taps(model, SPEC)
    mult = _spatial_multiplier(model, SPEC)
    # causal convolution ramps up near t_min: slice j only sees taps[0..j]
    partial = np.cumsum(taps**2)
    per_slice = partial[np.minimum(np.arange(SPEC.nt), len(taps) - 1)]
    pred = SPEC.dt * float(np.mean(per_slice)) * float(np.mean(np.abs(mult) ** 2)) / SPEC.dx
    assert est.values[0] == pytest.approx(pred, abs=4 * est.standard_errors[0])


def test_shot_noise_third_cumulant_matches_oracle():
    # nu = 1 keeps the kernel resolved by a modest grid; each shot scales
    # the macroscopic k3 by amp^3 = lam^(-3(d+sigma)/2), which is 1 here
    spec = LatticeSpec(1, 64, 0.02, 0.0, 1.0, 0.5)
    model = NoiseModel("poisson_shot", 1.0, 9, "bump", resolution_policy="spectral")
    oracle = shot_third_cumulant_oracle(model, 1)
    fields = [sample_macroscopic_noise(model, spec, i) for i in range(120)]
    est = estimate_cumulants(fields, 3, [((0, 0), (0, 0))])
    tol = 5 * est.standard_errors[0] + 0.2 * abs(oracle)
    assert est.values[0] == pytest.approx(oracle, abs=tol)


def test_cumulant_estimator_on_known_gaussian(rng):
    spec = LatticeSpec(1, 16, 0.1, 0.0, 0.5, 0.5)
    from flowpde.lattice import SPACE_TIME, Field

    fields = [
        Field(spec, rng.standard_normal((spec.nt, spec.n)), SPACE_TIME)
        for _ in range(300)
    ]
    c2 = estimate_cumulants(fields, 2, [(0, 0)])
    c3 = estimate_cumulants(fields, 3, [((0, 0), (0, 0))])
    c4 = estimate_cumulants(fields, 4, [((0, 0), (0, 0), (0, 0))])
    assert c2.values[0] == pytest.approx(1.0, abs=4 * c2.standard_errors[0])
    assert abs(c3.values[0]) < 4 * c3.standard_errors[0]
    assert abs(c4.values[0]) < 4 * c4.standard_errors[0]


def test_cumulant_lag_count_validation(rng):
    from flowpde.lattice import SPACE_TIME, Field

    spec = LatticeSpec(1, 16, 0.1, 0.0, 0.5, 0.5)
    fields = [
        Field(spec, rng.standard_normal((spec.nt, spec.n)), SPACE_TIME)
        for _ in range(4)
    ]
    with pytest.raises(ValidationFault, match="lags"):
        estimate_cumulants(fields, 3, [((0, 0),)])


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_with_nu_preserves_identity(idx):
    model = NoiseModel("mollified_white", 0.2, idx, "skew", resolution_policy="spectral")
    m2 = model.with_nu(0.1)
    assert (m2.kind, m2.master_seed, m2.family, m2.rate) == (
        model.kind,
        model.master_seed,
        model.family,
        model.rate,
    )
    assert m2.nu == 0.1


@pytest.mark.parametrize("family", ["bump", "skew"])
@pytest.mark.parametrize("n", [256, 512])
def test_blocked_spatial_hat_equals_one_matrix_product(family, n):
    prof = MollifierProfile(family)
    xi = 0.1**2 * np.fft.fftfreq(n, d=1.0 / n)
    vals = prof.spatial(prof._fine)
    phase = np.exp(-1j * np.multiply.outer(xi, prof._fine))
    np.testing.assert_array_equal(prof.spatial_hat(xi), phase @ vals * prof._du)


def test_spatial_multiplier_is_cached_read_only_and_seed_free():
    _cached_multiplier.cache_clear()
    a = NoiseModel("mollified_white", 0.1, 1, "skew", resolution_policy="spectral")
    b = NoiseModel("mollified_white", 0.1, 2, "skew", resolution_policy="spectral")
    wick_window = LatticeSpec(1, 64, 0.01, 0.0, 0.4, 0.5)
    noise_window = extended_window(wick_window, 2.0)
    mult = _spatial_multiplier(a, wick_window)
    assert _spatial_multiplier(b, noise_window) is mult
    assert _cached_multiplier.cache_info().currsize == 1
    assert not mult.flags.writeable
    with pytest.raises(ValueError):
        mult[0] = 0.0
    lam = 0.1 ** (1.0 / wick_window.sigma)
    fresh = MollifierProfile("skew").spatial_hat(lam * wick_window.axis_freqs())
    np.testing.assert_array_equal(mult, fresh)


def _axis0_mollified_white(model, spec, sample_index):
    """Reference for the mollified white-noise sampler: the same steps with
    the time FFTs along axis 0 of the (nt, space...) array.  The sampler
    must match it bit for bit."""
    rng = substream(model.master_seed, sample_index, "white")
    w = white_noise_slab(spec, rng)
    what = np.fft.fftn(w, axes=tuple(range(1, spec.d + 1)))
    what *= _spatial_multiplier(model, spec)[None]
    w = np.fft.ifftn(what, axes=tuple(range(1, spec.d + 1))).real
    taps = _temporal_taps(model, spec)
    n_pad = 1 << int(np.ceil(np.log2(spec.nt + len(taps))))
    tap_hat = np.fft.fft(taps, n=n_pad)
    w_hat = np.fft.fft(w, n=n_pad, axis=0)
    shape = (n_pad,) + (1,) * spec.d
    out = np.fft.ifft(tap_hat.reshape(shape) * w_hat, axis=0).real[: spec.nt]
    return spec.dt * out


@pytest.mark.parametrize("family", ["bump", "skew"])
@pytest.mark.parametrize(
    "spec, history",
    [
        (LatticeSpec(1, 256, 0.0025, 0.0, 0.5, 0.5), 2.0),  # criterion 7's lattice
        (LatticeSpec(2, 32, 0.01, 0.0, 0.25, 1.5), 0.5),
    ],
)
def test_time_last_noise_equals_axis0_reference(family, spec, history):
    model = NoiseModel("mollified_white", 0.1, 5, family, resolution_policy="spectral")
    sample = sample_macroscopic_noise(model, spec, 3, history=history)
    assert sample.data.flags.c_contiguous
    ref = _axis0_mollified_white(model, extended_window(spec, history), 3)
    np.testing.assert_array_equal(sample.data, ref)
