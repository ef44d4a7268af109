"""Deterministic kernels and operators.

Everything is spectral in space: a kernel is stored as multipliers per
(time slice, spatial frequency) on the rfft half (lattice's DFT contract),
so spatial convolution is exact multiplication and periodization on the
torus is automatic.  Time is a
causal uniform grid; time convolutions use dt-weighted trapezoid quadrature.

Symbols housed here: the fractional heat kernel G (multiplier
exp(-t|k|^sigma), zero for t<0), the temporal cutoff family G_mu =
chi(t/mu) G and its scale derivative dG_mu = d/dmu G_mu =
-(t/mu^2) chi'(t/mu) G supported in t in (mu, 2mu), the moment-weighted
dG^a_mu = X^a dG_mu, the regularizing kernel K_mu and its inverse
P_mu = (1 + mu d_t)(1 - [mu]^2 Lap), and the dressing
R_nu = 1 + [nu]^(sigma-eps) |k|^(sigma-eps) of the moment norms.

Note on the scale decomposition: with dG_mu := d/dmu G_mu (a nonpositive
kernel, since chi' >= 0) the heat kernel splits as
    G = G_T - int_0^T dG_mu dmu,
i.e. the fluctuation propagator G - G_T is recovered by integrating -dG_mu
over scales.  `reconstruct_G` realizes that split by quadrature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import factorial, isfinite, prod

import numpy as np

from .errors import ValidationFault
from .lattice import (
    SPACE_ONLY,
    SPACE_TIME,
    Field,
    LatticeSpec,
    check_finite,
    fft_time,
    irfft_space,
    padded_length,
    rfft_space,
)

DEFAULT_EPS = 0.05


def default_g(sigma: float) -> int:
    """Smoothing power used wherever 'sufficiently big g' is required."""
    return int(np.ceil(sigma)) + 2


# -- cutoff profile --------------------------------------------------------


def _h(s):
    out = np.zeros_like(s, dtype=float)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def chi(t):
    """Smooth transition: chi = 0 for t <= 1, chi = 1 for t >= 2."""
    t = np.asarray(t, dtype=float)
    h1 = _h(t - 1.0)
    h2 = _h(2.0 - t)
    with np.errstate(invalid="ignore"):
        out = np.where(h1 + h2 > 0, h1 / (h1 + h2), 0.0)
    return out


_DCHI_STEP = 1e-5


def chi_prime(t):
    """Derivative of chi by symmetric differencing (chi is C^inf; the
    plateaus make the stencil exact outside (1, 2))."""
    t = np.asarray(t, dtype=float)
    return (chi(t + _DCHI_STEP) - chi(t - _DCHI_STEP)) / (2.0 * _DCHI_STEP)


# -- kernels ---------------------------------------------------------------


@dataclass
class SpectralKernel:
    """Causal space-time kernel as per-slice spatial multipliers.

    mult[j] is the spatial multiplier at time offset j*dt, j = 0..nt-1, on
    the rfft half of the modes, (n, ..., n // 2 + 1).  Slices after
    support_hi vanish; causality (zero for t < 0) is implicit in the storage.
    """

    spec: LatticeSpec
    mult: np.ndarray
    support_hi: int = -1
    _spectrum: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.mult = np.asarray(self.mult)
        if self.support_hi < 0:
            self.support_hi = self.mult.shape[0] - 1

    def n_slices(self) -> int:
        return self.mult.shape[0]

    def time_spectrum(self, hi: int, m: int) -> np.ndarray:
        """FFT along time of slices 0..hi zero-padded to m points, time-last
        (space..., m).  A kernel with a read-only multiplier keeps its last
        spectrum (read-only too) for the next call with the same (hi, m)."""
        if self._spectrum is not None and self._spectrum[0] == (hi, m):
            return self._spectrum[1]
        kk = fft_time(self.mult[: hi + 1], m)
        if not self.mult.flags.writeable:
            kk.setflags(write=False)
            self._spectrum = ((hi, m), kk)
        return kk


def heat_multiplier(spec: LatticeSpec, t) -> np.ndarray:
    """exp(-t |k|^sigma) on the rfft half; zero for t < 0."""
    t = np.asarray(t, dtype=float)
    ks = spec.k_half() ** spec.sigma
    prof = np.exp(-t[(...,) + (None,) * spec.d] * ks[None])
    prof[t < 0] = 0.0
    return prof


def fluctuation_weight(t, mu: float):
    """1 - chi(t/mu): G - G_mu = fluctuation_weight(t, mu) G."""
    return 1.0 - chi(t / mu)


def dot_weight(t, mu: float):
    """-(t/mu^2) chi'(t/mu): dG_mu = d/dmu G_mu = dot_weight(t, mu) G."""
    return -(t / mu**2) * chi_prime(t / mu)


def _scale_kernel(spec: LatticeSpec, mu: float, weight, cut: bool) -> SpectralKernel:
    """weight(t, mu) G on the lattice's slices; with `cut` its support ends
    at the first slice with t >= 2 mu, where weight vanishes."""
    if mu <= 0:
        raise ValidationFault("mu must be positive")
    t = spec.dt * np.arange(spec.nt)
    mult = weight(t, mu)[(...,) + (None,) * spec.d] * heat_multiplier(spec, t)
    hi = min(int(np.searchsorted(t, 2.0 * mu, side="left")), spec.nt - 1) if cut else -1
    return SpectralKernel(spec, mult, hi)


def cutoff_heat(spec: LatticeSpec, mu: float) -> SpectralKernel:
    """G_mu = chi(t/mu) G: vanishes for t <= mu, equals G for t >= 2mu."""
    return _scale_kernel(spec, mu, lambda t, mu: chi(t / mu), cut=False)


@functools.lru_cache(maxsize=2)
def fluctuation_kernel(spec: LatticeSpec, mu: float) -> SpectralKernel:
    """G - G_mu = (1 - chi(t/mu)) G, supported in t in [0, 2mu].  Cached and
    read-only: every Psi^i on one lattice convolves with the same kernel,
    whose time spectrum then stays on it."""
    kernel = _scale_kernel(spec, mu, fluctuation_weight, cut=True)
    kernel.mult.setflags(write=False)
    return kernel


def dot_G(spec: LatticeSpec, mu: float) -> SpectralKernel:
    """dG_mu = d/dmu [chi(t/mu) G] = -(t/mu^2) chi'(t/mu) G, support (mu, 2mu)."""
    return _scale_kernel(spec, mu, dot_weight, cut=True)


def K_multiplier(spec: LatticeSpec, mu: float, g: int = 1) -> np.ndarray:
    """Spatial part of the K_mu symbol: (1 + [mu]^2 |k|^2)^(-g)."""
    lam = spec.scale_of(mu)
    return (1.0 + lam**2 * spec.k_half() ** 2) ** (-g)


# -- convolution and operators --------------------------------------------


def convolve(kernel: SpectralKernel, f: Field) -> Field:
    """Space-time convolution kernel * f.

    Spatial part: exact spectral multiplication (torus periodization is
    automatic).  Time part: causal discrete convolution, dt-weighted with the
    half-weight at the l=0 tap (trapezoid against the kernel's t=0 edge); the
    rule is independent of the kernel's support so the operation is exactly
    linear in the kernel, which the scale-split identities rely on.  History
    before the window start counts as zero; callers provide padded windows
    where that matters.  A space_only input is treated as the initial slice
    delta_{t_min} (x) f, i.e. the output slice j is mult[j] * fhat -- the
    exact semigroup image for the heat family.
    """
    spec = f.spec
    if kernel.spec.d != spec.d or kernel.spec.n != spec.n or kernel.spec.sigma != spec.sigma:
        raise ValidationFault("kernel and field live on incompatible lattices")
    if kernel.spec.dt != spec.dt:
        raise ValidationFault(f"kernel sampled at dt = {kernel.spec.dt:g}, field at dt = {spec.dt:g}")
    check_finite(f.data)
    fhat = rfft_space(f.data, spec.d)
    nt = spec.nt
    if f.domain == SPACE_ONLY:
        if kernel.n_slices() < nt:
            raise ValidationFault("insufficient time padding: kernel shorter than window")
        return Field(spec, irfft_space(kernel.mult[:nt] * fhat[None], spec), SPACE_TIME)
    hi = min(kernel.support_hi, nt - 1)
    dt = spec.dt
    # causal convolution along the time axis via an FFT zero-padded to a
    # 5-smooth length with no wrap onto the nt slices, time-last and in
    # place; the kernel stays the left factor (a complex product is not
    # bitwise commutative), and the copy gives the arithmetic below
    # contiguous operands, as numpy may pick another loop for strided ones
    m = padded_length(nt + hi + 1)
    buf = fft_time(fhat, m)
    np.multiply(kernel.time_spectrum(hi, m), buf, out=buf)
    np.fft.ifft(buf, axis=-1, out=buf)
    conv = np.ascontiguousarray(np.moveaxis(buf[..., :nt], -1, 0))
    out = dt * conv - 0.5 * dt * kernel.mult[0] * fhat
    return Field(spec, irfft_space(out, spec), SPACE_TIME)


def heat_propagate(f: Field, t: float) -> Field:
    """e^{-t (-Lap)^(sigma/2)} f for a space_only slice (exact per mode)."""
    if f.domain != SPACE_ONLY:
        raise ValidationFault("heat_propagate acts on space_only slices")
    mult = np.exp(-t * f.spec.k_half() ** f.spec.sigma)
    return Field(f.spec, irfft_space(mult * rfft_space(f.data, f.spec.d), f.spec), SPACE_ONLY)


def _exp_filter(data: np.ndarray, alpha: float) -> np.ndarray:
    """u_j = alpha u_{j-1} + (1-alpha) f_j along axis 0 (causal, mass one)."""
    out = np.empty_like(data)
    out[0] = (1.0 - alpha) * data[0]
    for j in range(1, data.shape[0]):
        out[j] = alpha * out[j - 1] + (1.0 - alpha) * data[j]
    return out


def _exp_filter_inverse(data: np.ndarray, alpha: float) -> np.ndarray:
    out = np.empty_like(data)
    out[0] = data[0] / (1.0 - alpha)
    out[1:] = (data[1:] - alpha * data[:-1]) / (1.0 - alpha)
    return out


def apply_K(f: Field, mu: float, g: int = 1) -> Field:
    """K_mu^{*g} * f.

    The spatial factor is the exact multiplier (1 + [mu]^2 |k|^2)^(-g).  The
    temporal factor 1/(1 + i mu p) is realized as the exact discrete
    exponential filter (mass one, causal); `apply_P` applies its exact
    inverse, so P_mu^g K_mu^{*g} = identity holds to machine precision.
    A space_only field has no time axis and gets the spatial factor only.
    """
    return _apply_K_family(f, mu, g, np.multiply, _exp_filter)


def apply_P(f: Field, mu: float, g: int = 1) -> Field:
    """P_mu^g = [(1 + mu d_t)(1 - [mu]^2 Lap)]^g, inverse of apply_K."""
    return _apply_K_family(f, mu, g, np.divide, _exp_filter_inverse)


def _apply_K_family(f: Field, mu: float, g: int, spatial, temporal) -> Field:
    """The one body of apply_K and apply_P: spatial(fhat, K_multiplier),
    then g passes of temporal along the time axis of a space_time field."""
    if mu <= 0:
        raise ValidationFault("mu must be positive")
    fhat = spatial(rfft_space(f.data, f.spec.d), K_multiplier(f.spec, mu, g))
    if f.domain == SPACE_TIME:
        alpha = np.exp(-f.spec.dt / mu)
        for _ in range(g):
            fhat = temporal(fhat, alpha)
    return Field(f.spec, irfft_space(fhat, f.spec), f.domain)


# -- moment norms of dG_mu -------------------------------------------------


def sigma_diamond(sigma: float) -> float:
    """Largest admissible spacetime degree for moment weights."""
    if float(sigma) == int(sigma) and int(sigma) % 2 == 0:
        return float(sigma)
    return float(np.ceil(sigma) - 1)


def spacetime_degree(a: tuple, sigma: float) -> float:
    """[a] = sigma*a0 + |abar| for a spacetime multi-index (a0, abar...)."""
    return sigma * a[0] + float(sum(a[1:]))


def _check_moment_index(a: tuple, d: int, sigma: float) -> None:
    if not isinstance(a, tuple) or len(a) != 1 + d or any(ai < 0 for ai in a):
        raise ValidationFault(f"multi-index {a} must have 1+d nonnegative entries")
    if sum(a) > sigma_diamond(sigma):
        raise ValidationFault(
            "multi-index order above the supported truncation depth: "
            f"|a|={sum(a)} > sigma_diamond={sigma_diamond(sigma)}"
        )


# time slices per inverse transform in dot_G_moment_norms, of the heat stack
# that serves every raw norm and of each index's dressed table: a block of
# slices on the parity orthant [0, n/2]^d goes through one irfft per axis,
# which bounds the size of the real-space arrays
MOMENT_BLOCK = 4


def _sin_shift(x: np.ndarray, out: np.ndarray, axis: int, parity: int) -> np.ndarray:
    """out = (x[k - 1] - x[k + 1]) / 2 along `axis`, which times 1/i is the
    spectrum of sin(x) times the field x is the spectrum of.  The table
    holds the frequencies [0, n/2] of the axis, and `parity` (+1 or -1) is
    its parity in that frequency, which supplies the entries past both ends:
    x[-1] = parity x[1] and x[n/2 + 1] = parity x[n/2 - 1].  The result has
    the opposite parity."""
    x, o = np.moveaxis(x, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(x[:-2], x[2:], out=o[1:-1])
    np.subtract(parity * x[1], x[1], out=o[0])
    np.subtract(x[-2], parity * x[-2], out=o[-1])
    o *= 0.5
    return out


def dot_G_moment_norms(
    spec: LatticeSpec,
    mu_grid,
    indices: tuple,
    nu: float = 1.0,
    g: int | None = None,
    eps: float = DEFAULT_EPS,
    nt_local: int = 96,
) -> dict:
    """L1 norms of the moment-weighted scale derivative, per multi-index
    and per mu.

    Returns {a: rows} for each multi-index a of the tuple `indices`, with
    one dict per mu in rows: keys mu, raw (||X^a dG_mu||_L1) and dressed
    (||R_nu P_mu^g X^a dG_mu||_L1).  Each mu gets its own fine time grid of
    nt_local slices over (mu, 2mu) (the support), so slopes are
    quadrature-clean.

    The moment weight X^a = t^{a0}/a0! * prod sin(x_c)^{a_c}/a_c! is a time
    weight per slice times a spatial weight per point.  Every kernel table
    is real and has a definite parity in each frequency axis: the heat table
    e^{-t|k|^sigma} is even in each, and each sin weight flips the parity on
    its own axis.  So every table lives on the parity orthant [0, n/2]^d,
    2^(d-1) times smaller than the rfft half of the other kernels, and its
    inverse transform runs one axis at a time: times -i on an odd axis
    (which makes the half Hermitian), irfft along the axis, and only the
    outputs x_c in [0, n/2] kept on every axis but the last.  |f| is even in
    every x_c, so the interior points of those axes count twice (x_c and
    n - x_c).  The phases multiply to (-i)^(number of odd axes), which
    differs from the sin weights' (-i)^|abar| by a sign only, and |.| cannot
    see it.

    Per mu the heat table is built once, and one inverse transform of it
    gives every raw norm: each index weights |G(t, x)| by
    |dot_weight(t, mu)| t^{a0} / (a0! a1! ... ad!) per slice and by
    prod |sin(x_c)|^{a_c} times the multiplicity per point.  The dressed
    norm keeps the spatial weight spectral (see the comment below) and
    applies P_mu^g's time factor, np.gradient's stencil, as one
    (nt_local x nt_local) matrix that also carries the time weight.
    Transforms run over MOMENT_BLOCK time slices at a time.

    Expected scaling: raw ~ [mu]^{[a]}; dressed ~ [nu v mu]^{sigma-eps} *
    [mu]^{eps-sigma+[a]} -- at fixed nu >= mu the dressed log-log slope in
    [mu] is [a] - sigma + eps.
    """
    for a in indices:
        _check_moment_index(a, spec.d, spec.sigma)
    mu_grid = [float(mu) for mu in mu_grid]
    if nt_local < 3:
        # the two ends of (mu, 2mu) are zeros of dG_mu
        raise ValidationFault(f"nt_local must be at least 3, got {nt_local}")
    if not all(isfinite(mu) and mu > 0 for mu in mu_grid):
        raise ValidationFault("every mu must be positive and finite")
    if g is None:
        g = default_g(spec.sigma)
    half = spec.n // 2 + 1
    ks = spec.k_half()[(slice(0, half),) * spec.d]
    ks_sigma = ks**spec.sigma
    r_mult = 1.0 + (spec.scale_of(nu) * ks) ** (spec.sigma - eps)
    axes = tuple(range(-spec.d, 0))
    per_slice = (...,) + (None,) * spec.d
    sin_x = np.abs(np.sin(spec.dx * np.arange(spec.n)))
    twice = np.full(half, 2.0)
    twice[[0, -1]] = 1.0

    def space_weight(abar):
        """prod |sin(x_c)|^{a_c} on the output grid, times the multiplicity
        of x_c in [0, n/2] on every axis but the last."""
        per_axis = [sin_x[:half] ** c * twice for c in abar[:-1]] + [sin_x ** abar[-1]]
        return functools.reduce(np.multiply.outer, per_axis).ravel()

    space_weights = np.stack([space_weight(a[1:]) for a in indices])
    multiplicity = space_weight((0,) * spec.d)
    heat = np.empty((nt_local, *ks.shape))
    tables = (np.empty_like(heat), np.empty_like(heat))
    # one block's transform input, and per axis its irfft output (n points
    # on that axis) and the outputs x_c in [0, n/2] kept there
    c_block = np.empty((MOMENT_BLOCK, *ks.shape), dtype=complex)
    r_blocks = [np.empty(c_block.shape[:axis] + (spec.n,) + c_block.shape[axis:][1:]) for axis in axes]
    kept = [(..., slice(0, half)) + (slice(None),) * (-1 - axis) for axis in axes[:-1]] + [...]

    def abs_blocks(table, odd):
        """(lo, |f|) per block of table[lo : lo + MOMENT_BLOCK], f its
        inverse transform on the output grid; odd: the table's odd axes."""
        for lo in range(0, nt_local, MOMENT_BLOCK):
            r = table[lo : lo + MOMENT_BLOCK]
            c = c_block[: len(r)]
            for axis, flip, r_out, keep in zip(axes, odd, r_blocks, kept):
                if flip:
                    np.multiply(r, -1j, out=c)
                else:
                    np.copyto(c, r)
                r = np.fft.irfft(c, spec.n, axis=axis, out=r_out[: len(c)])[keep]
            yield lo, np.abs(r, out=r).reshape(len(r), -1)

    rows = {a: [] for a in indices}
    for mu in mu_grid:
        lam = spec.scale_of(mu)
        t = np.linspace(mu, 2.0 * mu, nt_local)
        dtl = t[1] - t[0]
        measure = spec.dx**spec.d * dtl
        np.multiply(-t[per_slice], ks_sigma, out=heat)
        np.exp(heat, out=heat)
        dw = dot_weight(t, mu)
        slice_sums = np.empty((nt_local, len(indices)))
        for lo, r in abs_blocks(heat, (False,) * spec.d):
            np.matmul(r, space_weights.T, out=slice_sums[lo : lo + len(r)])
        # dressed norm: R_nu P_mu^g applied to the weighted kernel
        eye = np.eye(nt_local)
        time_factor = np.linalg.matrix_power(eye + mu * np.gradient(eye, dtl, axis=0), g)
        dress = (1.0 + lam**2 * ks**2) ** g * r_mult
        for i, a in enumerate(indices):
            weight = dw * t ** a[0] / prod(map(factorial, a))  # X^a's time part, per slice
            raw = float(np.abs(weight) @ slice_sums[:, i])
            abar = a[1:]
            # Periodic realization of the spatial moment weight: sin(x) per
            # axis, equal to x + O(x^3) where the kernel concentrates as
            # mu -> 0, and smooth across the torus seam (a raw x weight has
            # a seam jump whose slow spectral tail the P_mu factors would
            # amplify).  Applied spectrally, with its 1/i in the phase of
            # abs_blocks, so the kernel's e^{-t|k|^sigma} tail stays exact
            # and the large dressing factors never act on round-trip float
            # noise.  The j-th shift on an axis sees a table of parity
            # (-1)^j there.
            table = heat
            for axis, deg in zip(axes, abar):
                for j in range(deg):
                    spare = tables[1] if table is tables[0] else tables[0]
                    table = _sin_shift(table, spare, axis, (-1) ** j)
            if table is heat:
                table = np.multiply(heat, dress, out=tables[0])
            else:
                table *= dress
            out = tables[1] if table is tables[0] else tables[0]
            step = time_factor * weight  # P_mu^g's time factor after the time weight
            np.matmul(step, table.reshape(nt_local, -1), out=out.reshape(nt_local, -1))
            odd = tuple(deg % 2 == 1 for deg in abar)
            dressed = sum(float(np.sum(r @ multiplicity)) for _, r in abs_blocks(out, odd))
            rows[a].append({"mu": mu, "raw": raw * measure, "dressed": dressed * measure})
    return rows


def fit_loglog_slope(xs, ys) -> float:
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


# -- scale decomposition ---------------------------------------------------


def reconstruct_G(
    spec: LatticeSpec,
    f: Field,
    T: float,
    cells_per_octave: int = 16,
    n_octaves: int = 14,
):
    """Quadrature check of G_mu_min = G_T - int_(mu_min)^T dG_mu dmu acting
    on f, with mu_min = T 2^(-n_octaves) the floor of the scale decomposition
    (the grid realization of G: below the grid scale the cutoff is inert,
    except for the t=0 tap which every positive-scale cutoff kills).

    Midpoint rule in log mu over geometric cells.  The sum is taken on the
    multipliers: G_T - sum dmu dG_mid is built as one kernel (each term the
    multiplier `cutoff_heat` or `dot_G` holds, from one heat table) and
    convolved with f once, since convolve is linear in the kernel.  Returns
    (reconstructed, direct); their gap is still pure mu-quadrature error
    and at least halves under refinement of cells_per_octave (mu_min stays
    fixed).
    """
    mu_min = T * 2.0**-n_octaves
    direct = convolve(cutoff_heat(spec, mu_min), f)
    t = spec.dt * np.arange(spec.nt)
    heat = heat_multiplier(spec, t)
    per_slice = (...,) + (None,) * spec.d
    mult = chi(t / T)[per_slice] * heat
    edges = T * 2.0 ** (-np.arange(0, n_octaves * cells_per_octave + 1) / cells_per_octave)
    mids = np.sqrt(edges[:-1] * edges[1:])
    for dmu, weight in zip(edges[:-1] - edges[1:], dot_weight(t, mids[:, None])):
        mult -= dmu * (weight[per_slice] * heat)
    return convolve(SpectralKernel(spec, mult), f), direct


# -- invariant battery ------------------------------------------------------


def invariant_battery(d: int = 1, sigma: float = 0.5, n: int = 64) -> list:
    """Self-check of the kernel identities on a default lattice; returns one
    row per check with the measured value, tolerance, and pass flag.

    Checks: P_mu K_mu inversion, heat semigroup composition, the time
    support of dG_mu, the quadrature reconstruction G = G_T - int dG_mu dmu
    (error small and at least halving under mu-grid refinement), and the
    log-log scaling slopes of the moment-weighted ||dG^a_mu||_L1 (also on a
    d=2, sigma=3/2 lattice, where first derivative weights are admissible).
    """
    spec = LatticeSpec(d, n, 0.02, 0.0, 1.0, sigma)
    rng = np.random.default_rng(0)
    rows = []

    def row(check, value, tol, parameter=""):
        rows.append(
            {
                "check": check,
                "parameter": parameter,
                "value": float(value),
                "tol": float(tol),
                "pass": bool(value <= tol),
            }
        )

    f = Field(spec, rng.standard_normal((spec.nt, *spec.space_shape())), SPACE_TIME)
    g = default_g(sigma)
    back = apply_P(apply_K(f, 0.05, g), 0.05, g)
    row("PK_identity", np.max(np.abs(back.data - f.data)), 1e-12, f"mu=0.05,g={g}")

    slc = Field(spec, rng.standard_normal(spec.space_shape()), SPACE_ONLY)
    two_step = heat_propagate(heat_propagate(slc, 0.13), 0.29)
    one_step = heat_propagate(slc, 0.42)
    row("heat_semigroup", np.max(np.abs(two_step.data - one_step.data)), 1e-10, "s=0.13,t=0.29")

    mu = 0.25
    dg = dot_G(spec, mu)
    t = spec.dt * np.arange(spec.nt)
    outside = (t <= mu + 1e-12) | (t >= 2.0 * mu - 1e-12)
    row("dotG_support", np.max(np.abs(dg.mult[outside])), 0.0, "mu=0.25")

    probe = Field(spec, rng.standard_normal((spec.nt, *spec.space_shape())), SPACE_TIME)
    rec_c, direct = reconstruct_G(spec, probe, T=0.5, cells_per_octave=8)
    err_c = np.max(np.abs(rec_c.data - direct.data))
    rec_f, _ = reconstruct_G(spec, probe, T=0.5, cells_per_octave=16)
    err_f = np.max(np.abs(rec_f.data - direct.data))
    row("reconstruction_error", err_f, 1e-4, "T=0.5,cells_per_octave=16")
    row("reconstruction_halving", err_f / err_c, 0.6, "cells_per_octave=8:16")

    # Raw moment slope on the battery lattice itself (sigma=1/2 admits only
    # a=0; its dressed norm lives at grid-unreachable frequencies because
    # dot_G_1 has heavy spatial tails for sigma outside 2N, so only the raw
    # norm is checked here)...
    mu_grid = 2.0 ** -np.arange(2, 7, dtype=float)
    a0 = (0,) * (1 + d)
    norms = dot_G_moment_norms(spec, mu_grid, (a0,), nt_local=48)[a0]
    lam = [spec.scale_of(m) for m in mu_grid]
    row(
        "raw_slope",
        abs(fit_loglog_slope(lam, [r["raw"] for r in norms])),
        0.1,
        f"d={d},sigma={sigma},a={a0}",
    )
    # ... and raw + dressed slopes on a d=2, sigma=2 lattice (rapid kernel
    # decay; derivative moment weights admissible).  The dressed fit skips
    # the largest scales, where the sin-weight realization of x still
    # carries its O(x^3) distortion.
    spec2 = LatticeSpec(2, 256, 0.02, 0.0, 1.0, 2.0)
    mu_grid2 = 2.0 ** -np.arange(3, 10, dtype=float)
    lam2 = [spec2.scale_of(m) for m in mu_grid2]
    indices = ((0, 0, 0), (1, 0, 0), (0, 1, 0))
    for a, norms in dot_G_moment_norms(spec2, mu_grid2, indices, nt_local=48).items():
        deg = spacetime_degree(a, spec2.sigma)
        raw_slope = fit_loglog_slope(lam2, [r["raw"] for r in norms])
        dressed_slope = fit_loglog_slope(lam2[2:], [r["dressed"] for r in norms][2:])
        tag = f"d=2,sigma=2.0,a={a}"
        row("raw_slope", abs(raw_slope - deg), 0.1, tag)
        row(
            "dressed_slope",
            abs(dressed_slope - (deg - spec2.sigma + DEFAULT_EPS)),
            0.1,
            tag,
        )
    return rows
