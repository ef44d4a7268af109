import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpde import noise
from flowpde.errors import ValidationFault
from flowpde.flow import WickCalculator
from flowpde.kernels import fluctuation_kernel
from flowpde.lattice import SPACE_TIME, Field, LatticeSpec, fft_time, irfft_space, padded_length
from flowpde.noise import (
    WHITE_BLOCK,
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
    assert prof.spatial_hat(0.1, 8)[0] == pytest.approx(1.0, abs=1e-6)


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


@pytest.mark.parametrize(
    "spec, match",
    [
        (LatticeSpec(1, 1024, 0.05, 0.0, 0.4, 0.5), None),  # dx = 0.0061 <= 0.01, dt = nu/4
        (LatticeSpec(1, 512, 0.05, 0.0, 0.4, 0.5), r"need dx <= \[nu\]/4 = 0.01"),
        (LatticeSpec(1, 1024, 0.1, 0.0, 0.4, 0.5), r"need dt <= nu/4 = 0.05"),
    ],
    ids=["resolved", "coarse-dx", "coarse-dt"],
)
def test_resolution_report_is_the_strict_policy(spec, match):
    """noise.resolution says whether the strict policy passes by the rule
    sampling enforces."""
    nu = 0.2
    report = noise.resolution(nu, spec)
    assert report["dx_over_scale"] == pytest.approx(spec.dx / nu**2, rel=1e-12)
    assert report["dt_over_nu"] == pytest.approx(spec.dt / nu, rel=1e-12)
    assert report["strict_resolution"] is (match is None)
    model = NoiseModel("mollified_white", nu, 0, "bump")
    if match is None:
        noise._check_resolution(model, spec)
    else:
        with pytest.raises(ValidationFault, match=match):
            noise._check_resolution(model, spec)


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


# W on a window reaching back to t = -2: 241 slices at the absolute steps
# -200..40, in the blocks -4..0 of WHITE_BLOCK = 64 slices
W_WINDOW = extended_window(SPEC, 2.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, W_WINDOW.nt - 1), st.integers(1, W_WINDOW.nt))
def test_white_noise_rows_equal_the_full_draw(lo, size):
    """Any rows of W, across block edges and in the negative blocks before
    t = 0, equal those slices of the full draw bit for bit."""
    stop = min(lo + size, W_WINDOW.nt)
    full = white_noise_slab(W_WINDOW, 7, 3, (0, W_WINDOW.nt))
    rows = white_noise_slab(W_WINDOW, 7, 3, (lo, stop))
    assert rows.shape == (stop - lo, SPEC.n)
    np.testing.assert_array_equal(rows, full[lo:stop])


@pytest.mark.parametrize("spec", [SPEC, LatticeSpec(2, 8, 0.01, 0.0, 0.25, 1.5)], ids=["d1", "d2"])
def test_white_noise_slices_are_keyed_by_absolute_step(spec):
    """Block b holds the absolute steps [64 b, 64 (b + 1)) from the lattice's
    t = 0, drawn in full from the substream "white:<b>": a slice's value
    does not depend on the history before it."""
    scale = 1.0 / np.sqrt(spec.dt * spec.dx**spec.d)
    block = substream(7, 3, "white:-1").standard_normal((WHITE_BLOCK, *spec.space_shape())) * scale
    for history in (0.3, 0.77, 2.0):
        ext = extended_window(spec, history)
        back = int(round(-ext.t_min / ext.dt))
        w = white_noise_slab(ext, 7, 3, (0, ext.nt))
        np.testing.assert_array_equal(w[back:], white_noise_slab(spec, 7, 3, (0, spec.nt)))
        k = min(back, WHITE_BLOCK)  # the slices of block -1 the window holds
        np.testing.assert_array_equal(w[back - k : back], block[WHITE_BLOCK - k :])
    assert not np.array_equal(white_noise_slab(spec, 7, 3, (0, 4)), white_noise_slab(spec, 7, 4, (0, 4)))


def test_criterion_7_tail_draws_only_its_covering_blocks(monkeypatch):
    """Criterion 7's cells read W[760:1001] of the window [-2, 0.5], the
    absolute steps -40..200: the draw allocates the five blocks -1..3 that
    cover them, not the 1,001 slices of the window."""
    spec = LatticeSpec(1, 256, 0.0025, 0.0, 0.5, 0.5)
    model = NoiseModel("mollified_white", 0.05, 11, "skew", resolution_policy="spectral")
    cfg = SolveConfig(scheme="etd1", max_horizon=0.5, t_local=0.5)
    ext = extended_window(spec, 2.0)
    driver = spectral_driver(model, spec, 2.0, window_slices(ext, spec, cfg), 0.2)
    assert driver.rows == (760, 1001)
    slabs = []

    def recorded(*args):
        slabs.append(white_noise_slab(*args))
        return slabs[-1]

    monkeypatch.setattr(noise, "white_noise_slab", recorded)
    driver.spectrum(0)
    [w] = slabs
    assert w.shape == (241, 256)
    assert w.base.nbytes <= 5 * WHITE_BLOCK * 256 * 8 < ext.nt * 256 * 8
    tracemalloc.start()
    white_noise_slab(ext, 11, 0, driver.rows)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 5 * WHITE_BLOCK * 256 * 8 + 4096


def test_white_noise_variance_scaling():
    """Mollified white noise at lag 0: variance matches the discrete
    convolution-squared of the mollifier against 1/(dt dx) white noise.
    On SPEC alone W is one block; a history of 0.5 reaches into block -1,
    so the field is drawn across a block edge."""
    model = NoiseModel("mollified_white", 0.1, 5, "bump", resolution_policy="spectral")
    for history in (0.0, 0.5):
        fields = [sample_macroscopic_noise(model, SPEC, i, history=history) for i in range(150)]
        est = estimate_cumulants(fields, 2, [(0, 0)])
        # independent prediction from the sampling contract: the temporal taps
        # and spatial multiplier are deterministic, so Var = dt * sum(taps^2)
        # * mean(mult^2) / dx
        spec = fields[0].spec
        taps = _temporal_taps(model, spec)
        mult = _full_grid_multiplier(model, spec)
        # causal convolution ramps up near t_min: slice j only sees taps[0..j]
        partial = np.cumsum(taps**2)
        per_slice = partial[np.minimum(np.arange(spec.nt), len(taps) - 1)]
        pred = spec.dt * float(np.mean(per_slice)) * float(np.mean(np.abs(mult) ** 2)) / spec.dx
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


@pytest.mark.parametrize("lam", [0.01, 0.447, 1.0])
@pytest.mark.parametrize("n", [256, 512, 8192])
def test_chirp_z_spatial_hat_matches_dense_quadrature(lam, n):
    # Reference: the quadrature sum as a dense phase matrix against the fine
    # grid, built 512 frequencies at a time (at n = 8192 the whole matrix
    # would take 0.5 GB).  The chirp-z transform sums in another order, so
    # the two agree to round-off, not bit for bit.
    profs = [MollifierProfile(family) for family in ("bump", "skew")]
    fine, du = profs[0]._fine, profs[0]._du
    vals = np.stack([p.spatial(fine) for p in profs], axis=1)
    xi = lam * np.fft.fftfreq(n, d=1.0 / n)
    dense = np.concatenate(
        [np.exp(-1j * np.multiply.outer(xi[lo : lo + 512], fine)) @ vals * du for lo in range(0, n, 512)]
    )
    for p, ref in zip(profs, dense.T):
        np.testing.assert_allclose(p.spatial_hat(lam, n), ref, rtol=0, atol=1e-13)


def _full_grid_multiplier(model, spec):
    """The Hermitian part of the mollifier multiplier on the full frequency
    grid (n,)*d: the outer product of the 1-D spatial_hat over the d axes,
    its mirror conj M(-k) taken by flipping and rolling the grid.  A
    reference built apart from the package's rfft half layout."""
    hat = model.profile().spatial_hat(model.nu ** (1.0 / spec.sigma), spec.n)
    mult = functools.reduce(np.multiply.outer, [hat] * spec.d)
    axes = tuple(range(spec.d))
    return 0.5 * (mult + np.roll(np.flip(mult, axes), 1, axes).conj())


@pytest.mark.parametrize("family", ["bump", "skew"])
@pytest.mark.parametrize(
    "spec",
    [
        LatticeSpec(1, 256, 0.01, 0.0, 0.5, 0.5),
        LatticeSpec(1, 8192, 0.01, 0.0, 0.5, 0.5),
        LatticeSpec(2, 64, 0.01, 0.0, 0.5, 1.5),
        LatticeSpec(3, 16, 0.01, 0.0, 0.5, 2.0),
    ],
    ids=["d1-n256", "d1-n8192", "d2-n64", "d3-n16"],
)
def test_half_multiplier_is_the_full_grid_reference_cut_to_the_half(spec, family):
    """The multiplier built on the rfft half from the 1-D spatial_hat and its
    mirror equals the full-grid Hermitian part cut to the half, bit for bit:
    the mirror of an outer product is the outer product of the mirrors, and
    conj distributes over a product exactly."""
    model = NoiseModel("mollified_white", 0.2, 1, family, resolution_policy="spectral")
    mult = _spatial_multiplier(model, spec)
    assert mult.shape == (*spec.space_shape()[:-1], spec.n // 2 + 1)
    assert np.array_equal(mult, _full_grid_multiplier(model, spec)[..., : spec.n // 2 + 1])


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
    fresh = MollifierProfile("skew").spatial_hat(lam, wick_window.n)
    # the Hermitian part on the rfft half: real at the Nyquist mode, its own
    # mirror and the last column of the half
    nyquist = wick_window.n // 2
    np.testing.assert_array_equal(mult, (0.5 * (fresh + np.roll(fresh[::-1], 1).conj()))[: nyquist + 1])
    assert mult[nyquist] == fresh[nyquist].real and fresh[nyquist].imag != 0.0


def _axis0_mollified_white(model, spec, sample_index):
    """Reference for the mollified white-noise sampler: the formula it had
    before the noise became a spectral multiplier on the white spectrum.
    A full complex spatial transform, the mollifier multiplier, the real
    part, then the causal temporal convolution along axis 0."""
    w = white_noise_slab(spec, model.master_seed, sample_index, (0, spec.nt))
    what = np.fft.fftn(w, axes=tuple(range(1, spec.d + 1)))
    what *= _full_grid_multiplier(model, spec)[None]
    w = np.fft.ifftn(what, axes=tuple(range(1, spec.d + 1))).real
    taps = _temporal_taps(model, spec)
    n_pad = padded_length(spec.nt + len(taps))
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
    """The solve windows of the noise driver built for them, which
    transforms only the tail of W they read, match those of the reference
    noise, its taps applied by a time convolution along axis 0 over all of
    W, once taken back to real space."""
    model = NoiseModel("mollified_white", 0.1, 5, family, resolution_policy="spectral")
    cfg = SolveConfig(scheme="etd1", max_horizon=spec.t_max, t_local=spec.t_max)
    ext = extended_window(spec, history)
    xi = Field(ext, _axis0_mollified_white(model, ext, 3), SPACE_TIME)
    driver = spectral_driver(model, spec, history, window_slices(ext, spec, cfg), model.nu)
    assert driver.spec == ext and driver.rows[0] > 0
    got = driver.window(driver.spectrum(3))
    assert got.flags.c_contiguous and got.shape[-1] == ext.n // 2 + 1
    _assert_close(irfft_space(got, ext), solve_window(xi, spec, cfg))


def test_spectral_driver_keeps_the_checks_of_the_sample_path():
    spec = LatticeSpec(1, 64, 0.01, 0.0, 0.25, 0.5)
    spectral = NoiseModel("mollified_white", 0.1, 5, "bump", resolution_policy="spectral")
    spectral_driver(spectral, spec, 1.0)  # the noise alone needs no history
    with pytest.raises(ValidationFault, match="under-resolves"):
        spectral_driver(NoiseModel("mollified_white", 0.01, 5, "bump"), spec, 2.0)
    with pytest.raises(ValidationFault, match="poisson_shot"):
        spectral_driver(NoiseModel("poisson_shot", 0.1, 5, "bump"), spec, 2.0)
    # a pad sized for shorter taps than the driver's own would wrap
    with pytest.raises(ValidationFault, match="nu_max"):
        spectral_driver(spectral, spec, 1.0, nu_max=0.05)


def _assert_sample_is_the_causal_convolution(monkeypatch, nu, m):
    """On flowpde simulate's lattice, history 2: sample_macroscopic_noise
    transforms W on a spectrum m long, the least 5-smooth length that leaves
    room for every slice and the taps of nu, and equals the direct causal
    convolution of the mollified white noise with the taps on every slice."""
    spec = LatticeSpec(1, 256, 0.0025, 0.0, 1.0, 0.5)
    model = NoiseModel("mollified_white", nu, 5, "bump", resolution_policy="spectral")
    ext = noise.extended_window(spec, 2.0)
    taps = _temporal_taps(model, ext)
    assert m == padded_length(ext.nt + len(taps)) >= ext.nt + len(taps) - 1
    pads = []
    white_spectrum = noise.white_spectrum

    def recorded(master_seed, sample_index, spec, m, rows):
        pads.append(m)
        return white_spectrum(master_seed, sample_index, spec, m, rows)

    monkeypatch.setattr(noise, "white_spectrum", recorded)
    sample = sample_macroscopic_noise(model, spec, 3, history=2.0)
    assert pads == [m]
    w = white_noise_slab(ext, model.master_seed, 3, (0, ext.nt))
    space = _spatial_multiplier(model, ext)
    w = np.fft.irfft(space * np.fft.rfft(w, axis=1), ext.n, axis=1)
    ref = np.zeros_like(w)
    for lag, tap in enumerate(taps):
        ref[lag:] += tap * w[: ext.nt - lag]
    ref *= ext.dt
    err = np.max(np.abs(sample.data - ref), axis=1)
    assert err.shape == (ext.nt,)
    assert np.all(err <= REL_TOL * np.max(np.abs(ref)))


def test_longest_taps_do_not_wrap_on_the_5_smooth_spectrum(monkeypatch):
    """At nu = 1, the longest taps, the drive spectrum is m = 1440 long,
    and no tail wraps onto the first slices."""
    _assert_sample_is_the_causal_convolution(monkeypatch, 1.0, 1440)


def test_simulate_nu_taps_do_not_wrap_on_the_5_smooth_spectrum(monkeypatch):
    """At nu = 0.1, the noise of the simulate benchmark, the sample is
    padded for its own 21 taps, m = 1250 rather than the 1440 of nu = 1,
    and still no tail wraps onto the first slices."""
    _assert_sample_is_the_causal_convolution(monkeypatch, 0.1, 1250)


@pytest.mark.parametrize(
    "history, rows, start, m",
    [(2.0, (760, 1001), 800, 288), (0.05, (0, 221), 20, 270)],
    ids=["history-2", "history-shorter-than-taps"],
)
def test_longest_taps_do_not_wrap_on_the_tail_spectrum(history, rows, start, m):
    """At nu = 0.2, the longest taps of criterion 7's plan, a driver built
    for the plan's solve window transforms only the rows of W that its 201
    slices read, on a spectrum m long: the least 5-smooth length that
    leaves room for the rows and the taps.  Every slice read equals the
    direct causal convolution of the mollified white noise with the taps
    over all of W: no tail wraps onto the slices read, and the rows left
    out contribute nothing to them.  Where the history is shorter than the
    taps the rows start at the window start, and the pad alone keeps the
    first slices read from wrapping."""
    spec = LatticeSpec(1, 256, 0.0025, 0.0, 0.5, 0.5)
    model = NoiseModel("mollified_white", 0.2, 5, "bump", resolution_policy="spectral")
    cfg = SolveConfig(scheme="etd1", max_horizon=0.5, t_local=0.5)
    ext = extended_window(spec, history)
    reads = window_slices(ext, spec, cfg)
    driver = spectral_driver(model, spec, history, reads, model.nu)
    taps = _temporal_taps(model, ext)
    lo, stop = driver.rows
    assert ((lo, stop), reads.start, len(taps)) == (rows, start, 41)
    assert driver.time.size == m >= stop - lo + len(taps) - 1
    got = irfft_space(driver.window(driver.spectrum(3)), ext)
    w = white_noise_slab(ext, model.master_seed, 3, (0, ext.nt))
    space = _spatial_multiplier(model, ext)
    w = np.fft.irfft(space * np.fft.rfft(w, axis=1), ext.n, axis=1)
    ref = np.zeros_like(w)
    for lag, tap in enumerate(taps):
        ref[lag:] += tap * w[: ext.nt - lag]
    ref = ext.dt * ref[reads]
    err = np.max(np.abs(got - ref), axis=1)
    assert err.shape == (201,)
    assert np.all(err <= REL_TOL * np.max(np.abs(ref)))


@pytest.mark.parametrize("family", ["bump", "skew"])
@pytest.mark.parametrize("nu", [0.2, 0.1, 0.05])
def test_shift_multiplier_energy_is_the_wick_tadpole(family, nu):
    """The realized shift (G - G_1) * Xi is g * W with W of cell variance
    1 / (dt dx), so its stationary variance is sum g^2 / (dt dx), where
    g is the field the driver's inverse transforms make of a unit impulse
    when its multiplier is times the trapezoid symbol dt (K_hat - K_0 / 2)
    of K = G - G_1.  That is the discrete Wick tadpole
    C(1) = < ((G - G_1) * Xi)^2 >: the field and the Wick sums read one
    spatial multiplier, the one irfft realizes (real at the Nyquist mode,
    where the skew family's m_hat is not)."""
    spec = LatticeSpec(1, 256, 0.0025, 0.0, 0.5, 0.5)  # criterion 7's lattice
    model = NoiseModel("mollified_white", nu, 5, family, resolution_policy="spectral")
    driver = spectral_driver(model, spec, 2.0)
    ext = driver.spec
    kernel = fluctuation_kernel(ext, 1.0)
    half = kernel.mult  # on the rfft half, as the driver's space multiplier
    symbol = fft_time(half[: kernel.support_hi + 1], driver.time.size) - 0.5 * half[0][..., None]
    multiplier = driver.space[..., None] * driver.time * (ext.dt * symbol)
    response = np.fft.irfft(np.fft.ifft(multiplier, axis=-1), n=ext.n, axis=0)
    variance = float(np.sum(response**2)) / (ext.dt * ext.dx)
    tadpole = WickCalculator(spec, model).tadpole(1.0)
    assert variance == pytest.approx(tadpole, rel=1e-12, abs=0.0)
