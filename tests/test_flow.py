import functools
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from flowpde import flow
from flowpde.errors import NumericalFault, ValidationFault
from flowpde.flow import (
    CoefKernel,
    DistinctModes,
    WickCalculator,
    _octave_nodes,
    apply_moment,
    effective_force_series,
    expand_pathwise,
    flow_expected,
    flow_stack,
    integrate_I,
    pairing_count,
    stationary_sum,
    taylor_decompose,
    wick_sums,
)
from flowpde.kernels import SpectralKernel, chi, chi_prime, convolve, fluctuation_kernel
from flowpde.lattice import SPACE_TIME, Field, LatticeSpec, irfft_space, padded_length
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


def _full_grid_mhat2(wick):
    """|M|^2 on the full frequency grid, raveled: the Hermitian part of the
    outer product of the 1-D spatial_hat over the d axes, taken by flipping
    and rolling that grid (conj M(-k)), independent of the package's rfft
    half layout."""
    spec, model = wick.spec, wick.model
    hat = model.profile().spatial_hat(model.nu ** (1.0 / spec.sigma), spec.n)
    mult = functools.reduce(np.multiply.outer, [hat] * spec.d)
    axes = tuple(range(spec.d))
    mult = 0.5 * (mult + np.roll(np.flip(mult, axes), 1, axes).conj())
    return np.abs(mult).ravel() ** 2


def _full_grid_fold(wick):
    """The mode weights folded over every mode of the full grid, each
    distinct |k|^sigma a column, as np.unique orders them."""
    k_sigma = wick.spec.k_norm().ravel() ** wick.spec.sigma
    distinct, inverse = np.unique(k_sigma, return_inverse=True)
    return distinct, wick.prefactor * np.bincount(inverse, weights=_full_grid_mhat2(wick))


def _reference_spectrum(spec, mult, lo, n_pad):
    """Full-column reference: rfft along time of the quadrature-weighted
    kernel slices (half weight at a t = 0 tap), one column per mode, placed
    at their absolute positions."""
    w = np.full(len(mult), spec.dt)
    if lo == 0:
        w[0] = 0.5 * spec.dt
    arr = np.zeros((lo + len(mult), mult.shape[1]))
    arr[lo:] = w[:, None] * mult
    return np.fft.rfft(arr, n=n_pad, axis=0)


def _reference_fluct(spec, mu):
    dt = spec.dt
    t = dt * np.arange(int(np.ceil(2.0 * mu / dt)) + 1)
    return (1.0 - chi(t / mu))[:, None] * np.exp(-np.outer(t, spec.k_norm().ravel() ** spec.sigma))


def _reference_kernels(wick, mu):
    """The spectra of G - G_mu and dG_mu at the cell's own pad, each kernel
    built on its own slices with one column per mode, and that pad."""
    spec, dt = wick.spec, wick.spec.dt
    hi = int(np.ceil(2.0 * mu / dt))
    lo = int(np.floor(mu / dt))
    t_dot = dt * np.arange(lo, hi + 1)
    k_sigma = spec.k_norm().ravel() ** spec.sigma
    dot = (-(t_dot / mu**2) * chi_prime(t_dot / mu))[:, None] * np.exp(-np.outer(t_dot, k_sigma))
    n_pad = padded_length(hi + 1 + len(wick.taps) + 1)
    fluct = _reference_spectrum(spec, _reference_fluct(spec, mu), 0, n_pad)
    return fluct, _reference_spectrum(spec, dot, lo, n_pad), n_pad


def _reference_node(wick, mu):
    """C(mu) and D(mu) from the products |S|^2 and Re(conj(S) S_dot) of
    the kernel spectra, one column per mode, summed over frequency with the
    rfft Parseval weights times |T|^2 of the taps: the spectral form of the
    Wick sums, an oracle independent of the package's lag sums.  The sum
    over modes folds |M|^2 onto the distinct |k|^sigma (the first mode of
    each value stands for its column)."""
    S, S_dot, n_pad = _reference_kernels(wick, mu)
    T = np.fft.rfft(wick.taps, n=n_pad)
    weights = (2.0 / n_pad) * (T.real**2 + T.imag**2)
    weights[0] *= 0.5
    if n_pad % 2 == 0:
        weights[-1] *= 0.5
    k_sigma = wick.spec.k_norm().ravel() ** wick.spec.sigma
    _, first = np.unique(k_sigma, return_index=True)
    folded = _full_grid_fold(wick)[1]
    products = (S.real**2 + S.imag**2, S.real * S_dot.real + S.imag * S_dot.imag)
    return tuple(float(np.sum((weights[None] @ A)[0, first] * folded)) for A in products)


def _tap_smoothed_node(wick, mu):
    """C(mu) and D(mu) by the tap-smoothed formula: each kernel's spectrum
    times the taps' rfft, Parseval over time of the two sides' product,
    then the mhat2-weighted sum over every mode."""
    S, S_dot, n_pad = _reference_kernels(wick, mu)
    T = np.fft.rfft(wick.taps, n=n_pad)[:, None]

    def pairing(H1, H2):
        prod = (H1.conj() * H2).real
        val = 2.0 * prod.sum(axis=0) - prod[0]
        if n_pad % 2 == 0:
            val -= prod[-1]
        val /= n_pad
        return float(wick.prefactor * np.sum(_full_grid_mhat2(wick) * val))

    return pairing(S * T, S * T), pairing(S * T, S_dot * T)


def _reference_covariance(wick, n_lags):
    """covariance_kernel with one column per mode, cut to the rfft half."""
    fluct = _reference_fluct(wick.spec, 1.0)
    n_pad = padded_length(2 * (len(fluct) + len(wick.taps) + n_lags))
    H = _reference_spectrum(wick.spec, fluct, 0, n_pad) * np.fft.rfft(wick.taps, n=n_pad)[:, None]
    auto = np.fft.irfft(np.abs(H) ** 2, n=n_pad, axis=0)
    out_hat = auto[:n_lags] * (wick.prefactor * _full_grid_mhat2(wick)[None])
    spec = wick.spec
    half = (out_hat * spec.n**spec.d).reshape((n_lags, *spec.space_shape()))[..., : spec.n // 2 + 1]
    return irfft_space(half, spec)


@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(1, 256, 0.0025, 0.0, 0.5, 0.5), LatticeSpec(2, 16, 0.01, 0.0, 0.5, 0.5)],
    ids=["criterion7-d1", "d2"],
)
@pytest.mark.parametrize("family", ["bump", "skew"])
def test_distinct_k_layout_equals_full_column_reference(spec, family):
    """The Wick sums run on the distinct values of |k|^sigma (129 of 256
    modes on criterion 7's lattice; in d = 2 several k share one |k| off
    the axes too) and equal the one-column-per-mode |S|^2 |T|^2 formula and
    the tap-smoothed formula to round-off (at most 3e-15 measured).  The
    covariance kernel, which keeps the spectral form, equals its
    one-column-per-mode reference bit for bit."""
    modes = DistinctModes(spec)
    assert len(modes.k_sigma) < spec.n**spec.d
    for nu in (0.2, 0.1, 0.05):
        wick = WickCalculator(spec, NoiseModel("mollified_white", nu, 11, family), modes)
        for mu in (2.0**-8, 0.013, 0.37, 1.0):
            node = wick.flow_node(mu)
            np.testing.assert_allclose(node, _reference_node(wick, mu), rtol=1e-13, atol=0.0)
            assert node[0] == wick.tadpole(mu)
            np.testing.assert_allclose(node, _tap_smoothed_node(wick, mu), rtol=1e-13, atol=0.0)
        n_lags = min(int(np.ceil(2.0 / spec.dt)) + 1, spec.nt)
        P, P_ref = wick.covariance_kernel(n_lags), _reference_covariance(wick, n_lags)
        # the memory order too: the sunset integrals sum over P in it
        assert np.array_equal(P, P_ref) and P.strides == P_ref.strides


@pytest.mark.parametrize("family", ["bump", "skew"])
@pytest.mark.parametrize("nu", [0.2, 0.05])
@pytest.mark.parametrize("n", [256, 1024, 8192])
def test_d1_half_folded_mode_weights_equal_the_full_grid_fold(n, nu, family):
    """At d = 1 each |k|^sigma but those of k = 0 and n/2 holds the two
    modes k and -k, whose |M|^2 agree bit for bit (the multiplier is
    Hermitian), so the full grid's fold adds a and a where the half counts
    2a: the same distinct values and the same weights, bit for bit."""
    wick = WickCalculator(LatticeSpec(1, n, 0.01, -2.0, 1.0, 0.5), NoiseModel("mollified_white", nu, 11, family))
    assert wick.mhat2.shape == (n // 2 + 1,)
    distinct, weights = _full_grid_fold(wick)
    assert np.array_equal(wick.modes.k_sigma, distinct)
    assert np.array_equal(wick.mode_weights, weights)


@pytest.mark.parametrize("family", ["bump", "skew"])
@pytest.mark.parametrize(
    "spec, nu",
    [(LatticeSpec(2, 64, 0.01, 0.0, 0.5, 1.5), 0.2), (LatticeSpec(3, 16, 0.01, 0.0, 0.5, 2.0), 0.2)],
    ids=["d2", "d3"],
)
def test_half_folded_mode_weights_equal_the_full_grid_fold_to_round_off(spec, nu, family):
    """Off d = 1 several modes of the half share one |k| (|(3, 4)| = |(5,
    0)|), and folding the half adds their weights in another order than
    the full grid: the distinct values are the same, and the weights agree
    to round-off (at most 2.3e-15 relative measured at d = 3)."""
    wick = WickCalculator(spec, NoiseModel("mollified_white", nu, 11, family, resolution_policy="spectral"))
    assert wick.mhat2.shape == (*spec.space_shape()[:-1], spec.n // 2 + 1)
    distinct, weights = _full_grid_fold(wick)
    assert np.array_equal(wick.modes.k_sigma, distinct)
    np.testing.assert_allclose(wick.mode_weights, weights, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n, dt", [(64, 0.02), (256, 0.0025)])
def test_flow_node_equals_tadpole_and_derivative(n, dt, desk_noise):
    """The flow's per-node C and D, from one pass over the lags, equal the
    tadpole and its derivative exactly, and the spectral reference to
    round-off."""
    wick = WickCalculator(LatticeSpec(1, n, dt, -2.0, 1.0, 0.5), desk_noise)
    for mu in (2.0**-8, 0.013, 0.1, 0.37, 0.5, 1.0):
        c, d = wick.flow_node(mu)
        assert c == wick.tadpole(mu)
        assert d == wick.tadpole_derivative_half(mu)
        np.testing.assert_allclose((c, d), _reference_node(wick, mu), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "spec, nu, mu, rows, taps",
    [
        (LatticeSpec(1, 256, 0.0025, 0.0, 0.5, 0.5), 0.2, 2.0**-10, 2, 41),
        (LatticeSpec(1, 64, 0.02, -2.0, 1.0, 0.5), 0.05, 0.015, 3, 3),
        (LatticeSpec(2, 16, 0.01, 0.0, 0.5, 0.5), 0.1, 0.007, 3, 6),
    ],
    ids=["taps-longer-than-rows", "mu-below-dt", "d2-mu-below-dt"],
)
def test_lag_sums_at_the_edges_equal_the_spectral_reference(spec, nu, mu, rows, taps):
    """At mu < dt the dot kernel's rows start at j = 0 (at mu = 2^-10 both
    of its two rows lie past 2 mu, so D = 0); where the taps outnumber the
    rows, only the lags below the row count pair any slices.  Each point,
    in d = 1 and d = 2, matches the spectral reference."""
    wick = WickCalculator(spec, NoiseModel("mollified_white", nu, 11, "skew"))
    assert mu < spec.dt
    assert (int(np.ceil(2.0 * mu / spec.dt)) + 1, len(wick.taps)) == (rows, taps)
    c, d = wick.flow_node(mu)
    assert c > 0.0 and (d != 0.0) == (rows > 2)
    np.testing.assert_allclose((c, d), _reference_node(wick, mu), rtol=1e-13, atol=0.0)


def _ensemble_wicks():
    """Criterion 7's six cells (two families, three nu) on its lattice."""
    spec = LatticeSpec(1, 256, 0.0025, 0.0, 0.5, 0.5)
    modes = DistinctModes(spec)
    return [
        WickCalculator(spec, NoiseModel("mollified_white", nu, 11, family), modes)
        for family in ("bump", "skew")
        for nu in (0.2, 0.1, 0.05)
    ]


def test_a_cells_wick_sums_alone_equal_its_sums_in_a_stack():
    """Each cell contracts the shared node products with its own
    autocorrelation and heat trace, one matvec per cell, so its C and D are
    bit-identical whether it is summed alone or with five other cells of
    other tap lengths."""
    wicks = _ensemble_wicks()
    assert len({len(wick.taps) for wick in wicks}) == 3
    nodes, _ = _octave_nodes(8, 8)
    mus = np.append(nodes, (2.0**-8, 1.0))
    stacked = wick_sums(wicks, mus, dot=True)
    assert stacked.shape == (6, len(mus), 2)
    for wick, sums in zip(wicks, stacked):
        assert np.array_equal(wick_sums([wick], mus, dot=True)[0], sums)


def _bands(mus, dt):
    """The node bands of wick_sums' rule, as lists of positions in mus: by
    row count r = ceil(2 mu / dt) + 1, largest first, a band holds the nodes
    whose r is above 1/4 of its largest."""
    rows = [int(np.ceil(2.0 * mu / dt)) + 1 for mu in mus]
    left = sorted(range(len(mus)), key=lambda k: -rows[k])
    bands = []
    while left:
        bands.append([k for k in left if 4 * rows[k] > rows[left[0]]])
        left = left[len(bands[-1]) :]
    return bands


def test_criterion7_wick_sums_equal_each_nodes_own_sums_in_every_band():
    """Criterion 7's six-cell, 66-node call cuts its nodes into bands of
    their own row counts (801 down to 5 rows here).  Each node's C and D
    equal that node's flow_node, summed on its own rows alone, to 1e-14
    relative (fixed before measuring: the two differ in the order of the
    sums only), and the spectral reference at rtol 1e-13 for the first and
    last node of every band."""
    wicks = _ensemble_wicks()
    nodes, _ = _octave_nodes(8, 8)
    mus = np.append(nodes, (2.0**-8, 1.0))
    bands = _bands(mus, wicks[0].spec.dt)
    assert len(bands) == 4 and sorted(sum(bands, [])) == list(range(len(mus)))
    sums = wick_sums(wicks, mus, dot=True)
    for wick, cell in zip(wicks, sums):
        own = np.array([wick.flow_node(mu) for mu in mus])
        np.testing.assert_allclose(cell, own, rtol=1e-14, atol=0.0)
        for k in [k for band in bands for k in (band[0], band[-1])]:
            np.testing.assert_allclose(cell[k], _reference_node(wick, mus[k]), rtol=1e-13, atol=0.0)


def test_wick_sums_temporaries_stay_within_nodes_by_rows():
    """No temporary holds (nodes x rows x lags) doubles: criterion 7's six
    cells at 66 nodes and 801 rows, with up to 41 lags, peak at a few
    nodes-by-rows arrays; the n = 8192 tadpole builds its heat traces in
    blocks of modes, not as one 401 x 4097 table (13 MB)."""
    wicks = _ensemble_wicks()
    nodes, _ = _octave_nodes(8, 8)
    mus = np.append(nodes, (2.0**-8, 1.0))
    rows = int(np.ceil(2.0 / wicks[0].spec.dt)) + 1
    wide = WickCalculator(LatticeSpec(1, 8192, 0.01, -2.0, 1.0, 0.5), NoiseModel("mollified_white", 0.05, 11))
    tracemalloc.start()
    try:
        wick_sums(wicks, mus, dot=True)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        wide.tadpole(1.0)
        _, wide_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(mus) * rows * 8
    assert wide_peak < 2 * 8 * DistinctModes.BLOCK


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


def test_flow_stack_of_no_cells_builds_no_spectrum(monkeypatch, desk_model, desk_spec):
    """A plan whose cells all carry counterterm overrides flows nothing:
    no mode table, no heat trace, no Wick sum is built."""

    def refused(*args, **kwargs):
        raise AssertionError("a Wick sum or its mode table was built")

    monkeypatch.setattr(flow, "DistinctModes", refused)
    monkeypatch.setattr(flow, "wick_sums", refused)
    with pytest.raises(AssertionError, match="was built"):
        flow_stack(desk_spec, [(desk_model, 0.1, RenormScheme.for_model(desk_model))])
    assert flow_stack(desk_spec, []) == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 1], ids=["C", "D"])
def test_flow_stack_faults_on_a_non_finite_wick_sum(monkeypatch, desk_model, desk_spec, value, column):
    """One non-finite C or D at any node of any cell ends the stack in a
    NumericalFault naming its mu and cell, before a counterterm is formed."""
    wick_sums = flow.wick_sums

    def spoiled(wicks, mus, dot):
        sums = wick_sums(wicks, mus, dot)
        sums[1, 3, column] = value
        return sums

    monkeypatch.setattr(flow, "wick_sums", spoiled)
    scheme = RenormScheme.for_model(desk_model)
    cells = [(desk_model, 0.1, scheme), (desk_model, 0.05, scheme)]
    nodes, _ = _octave_nodes(4, 4)
    with pytest.raises(NumericalFault, match=f"not finite at mu = {nodes[3]:g} of cell 1 \\(nu = 0.05\\)"):
        flow_stack(desk_spec, cells, j_levels=4, nodes_per_octave=4)


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
    curves, ct = flow_expected(
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
    assert key in curves
    mus, vals = curves[key]
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
