import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpde.errors import ValidationFault
from flowpde.flow import WickCalculator
from flowpde.kernels import convolve, fluctuation_kernel
from flowpde.lattice import SPACE_TIME, Field, LatticeSpec
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
    spectral_driver,
    substream,
    white_noise_slab,
)
from flowpde.solver import SolveConfig, solve_window, window_slices

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
    """Reference for the mollified white-noise sampler: the formula it had
    before the noise became a spectral multiplier on the white spectrum.
    A full complex spatial transform, the mollifier multiplier, the real
    part, then the causal temporal convolution along axis 0."""
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


# criterion 7's lattice, and a d = 2 one whose skew mollifier has complex
# values on the Nyquist rows (where the rfft layout of m_hat matters)
REFERENCE_CASES = [
    (LatticeSpec(1, 256, 0.0025, 0.0, 0.5, 0.5), 2.0),
    (LatticeSpec(2, 32, 0.01, 0.0, 0.25, 1.5), 2.0),
]
# the spectral driver reorders the same sums, so it matches its reference
# to rounding; 1e-12 of the field's size leaves ~1000 ulps of room
REL_TOL = 1e-12


def _assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= REL_TOL * np.max(np.abs(ref))


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
    _assert_close(sample.data, ref)


@pytest.mark.parametrize("family", ["bump", "skew"])
@pytest.mark.parametrize("spec, history", REFERENCE_CASES)
def test_driver_windows_equal_the_sample_and_convolve_path(family, spec, history):
    """The solve windows of the noise driver and of the shift driver match
    the reference noise and its shift (G - G_1) * Xi by kernels.convolve,
    which is build_stationary_shift at i_rhd = 0."""
    model = NoiseModel("mollified_white", 0.1, 5, family, resolution_policy="spectral")
    cfg = SolveConfig(scheme="etd1", max_horizon=spec.t_max, t_local=spec.t_max)
    ext = extended_window(spec, history)
    xi = Field(ext, _axis0_mollified_white(model, ext, 3), SPACE_TIME)
    shift = convolve(fluctuation_kernel(ext, 1.0), xi)
    for drive, ref in ((False, xi), (True, shift)):
        driver = spectral_driver(model, spec, history, shift=drive)
        assert driver.spec == ext
        got = driver.window(driver.spectrum(3), window_slices(ext, spec, cfg))
        assert got.flags.c_contiguous
        _assert_close(got, solve_window(ref, spec, cfg))


def test_shift_driver_keeps_the_checks_of_the_sample_path():
    spec = LatticeSpec(1, 64, 0.01, 0.0, 0.25, 0.5)
    spectral = NoiseModel("mollified_white", 0.1, 5, "bump", resolution_policy="spectral")
    with pytest.raises(ValidationFault, match="too short"):
        spectral_driver(spectral, spec, 1.0, shift=True)
    spectral_driver(spectral, spec, 1.0)  # the noise alone needs no history
    with pytest.raises(ValidationFault, match="under-resolves"):
        spectral_driver(NoiseModel("mollified_white", 0.01, 5, "bump"), spec, 2.0, shift=True)
    with pytest.raises(ValidationFault, match="poisson_shot"):
        spectral_driver(NoiseModel("poisson_shot", 0.1, 5, "bump"), spec, 2.0)


@pytest.mark.parametrize("family", ["bump", "skew"])
@pytest.mark.parametrize("nu", [0.2, 0.1, 0.05])
def test_shift_multiplier_energy_is_the_wick_tadpole(family, nu):
    """Parseval: the shift drive is h * W with W of cell variance
    1 / (dt dx^d), so its stationary variance is the energy of the
    multiplier's impulse response over n^d dt dx^d, and that is the
    discrete Wick tadpole C(1) = < ((G - G_1) * Xi)^2 >."""
    spec = LatticeSpec(1, 256, 0.0025, 0.0, 0.5, 0.5)  # criterion 7's lattice
    model = NoiseModel("mollified_white", nu, 5, family, resolution_policy="spectral")
    driver = spectral_driver(model, spec, 2.0, shift=True)
    ext = driver.spec
    multiplier = driver.space[..., None] * driver.time * driver.kernel
    energy = np.sum(np.abs(np.fft.ifft(multiplier, axis=-1)) ** 2, axis=-1)
    # on the rfft half every column but the zero and Nyquist one stands for
    # a mode and its mirror
    weights = np.full(energy.shape[-1], 2.0)
    weights[0] = weights[-1] = 1.0
    variance = float(np.sum(weights * energy)) / (ext.n**ext.d * ext.dt * ext.dx**ext.d)
    tadpole = WickCalculator(spec, model).tadpole(1.0)
    assert variance == pytest.approx(tadpole, rel=1e-12, abs=0.0)
