"""Deterministic kernels and operators.

Everything is spectral in space: a kernel is stored as complex multipliers
per (time slice, spatial frequency), so spatial convolution is exact
multiplication and periodization on the torus is automatic.  Time is a
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

import numpy as np

from .errors import ValidationFault
from .lattice import (
    SPACE_ONLY,
    SPACE_TIME,
    Field,
    LatticeSpec,
    fft_time,
    forward_transform,
    inverse_transform,
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

    mult[j] is the spatial multiplier at time offset j*dt, j = 0..nt-1.
    Slices outside [support_lo, support_hi] (inclusive index range) vanish;
    causality (zero for t < 0) is implicit in the storage.
    """

    spec: LatticeSpec
    mult: np.ndarray
    kind: str = "custom"
    support_lo: int = 0
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
    """exp(-t |k|^sigma) on the frequency grid; zero for t < 0."""
    t = np.asarray(t, dtype=float)
    ks = spec.k_norm() ** spec.sigma
    prof = np.exp(-t[(...,) + (None,) * spec.d] * ks[None])
    prof[t < 0] = 0.0
    return prof


def cutoff_heat(spec: LatticeSpec, mu: float) -> SpectralKernel:
    """G_mu = chi(t/mu) G: vanishes for t <= mu, equals G for t >= 2mu."""
    if mu <= 0:
        raise ValidationFault("mu must be positive")
    nt = spec.nt
    t = spec.dt * np.arange(nt)
    w = chi(t / mu)
    mult = w[(...,) + (None,) * spec.d] * heat_multiplier(spec, t)
    lo = int(np.searchsorted(t, mu, side="right"))
    return SpectralKernel(spec, mult, kind=f"cutoff_heat({mu})", support_lo=min(lo, nt - 1))


def check_fluctuation_window(spec: LatticeSpec) -> None:
    """ValidationFault unless the window is long enough for G - G_1 to act
    on its interior: the kernel's support [0, 2] fits in it."""
    if spec.t_max - spec.t_min < 2.0:
        raise ValidationFault(
            "noise window too short for the fluctuation kernel support (needs >= 2)"
        )


@functools.lru_cache(maxsize=2)
def fluctuation_kernel(spec: LatticeSpec, mu: float) -> SpectralKernel:
    """G - G_mu = (1 - chi(t/mu)) G, supported in t in [0, 2mu].  Cached and
    read-only: every shift on one lattice convolves with the same kernel,
    whose time spectrum then stays on it."""
    if mu <= 0:
        raise ValidationFault("mu must be positive")
    nt = spec.nt
    t = spec.dt * np.arange(nt)
    w = 1.0 - chi(t / mu)
    mult = w[(...,) + (None,) * spec.d] * heat_multiplier(spec, t)
    mult.setflags(write=False)
    hi = int(np.searchsorted(t, 2.0 * mu, side="left"))
    return SpectralKernel(spec, mult, kind=f"fluct({mu})", support_hi=min(hi, nt - 1))


def dot_G(spec: LatticeSpec, mu: float) -> SpectralKernel:
    """dG_mu = d/dmu [chi(t/mu) G] = -(t/mu^2) chi'(t/mu) G, support (mu, 2mu)."""
    if mu <= 0:
        raise ValidationFault("mu must be positive")
    nt = spec.nt
    t = spec.dt * np.arange(nt)
    w = -(t / mu**2) * chi_prime(t / mu)
    mult = w[(...,) + (None,) * spec.d] * heat_multiplier(spec, t)
    lo = int(np.searchsorted(t, mu, side="right"))
    hi = int(np.searchsorted(t, 2.0 * mu, side="left"))
    return SpectralKernel(
        spec, mult, kind=f"dot_G({mu})", support_lo=min(lo, nt - 1), support_hi=min(hi, nt - 1)
    )


def K_multiplier(spec: LatticeSpec, mu: float, g: int = 1) -> np.ndarray:
    """Spatial part of the K_mu symbol: (1 + [mu]^2 |k|^2)^(-g)."""
    lam = spec.scale_of(mu)
    return (1.0 + lam**2 * spec.k_norm() ** 2) ** (-g)


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
    fhat = forward_transform(f)
    if f.domain == SPACE_ONLY:
        nt = spec.nt
        if kernel.n_slices() < nt:
            raise ValidationFault("insufficient time padding: kernel shorter than window")
        out = kernel.mult[:nt] * fhat[None]
        return inverse_transform(spec, out, SPACE_TIME)
    nt = spec.nt
    hi = min(kernel.support_hi, nt - 1)
    dt = spec.dt
    # causal convolution along the time axis via zero-padded FFT, time-last
    # and in place; the kernel stays the left factor (a complex product is
    # not bitwise commutative), and the copy gives the arithmetic below
    # contiguous operands, as numpy may pick another loop (and other
    # roundings) for strided ones
    m = 1
    while m < nt + hi + 1:
        m *= 2
    buf = fft_time(fhat, m)
    np.multiply(kernel.time_spectrum(hi, m), buf, out=buf)
    np.fft.ifft(buf, axis=-1, out=buf)
    conv = np.ascontiguousarray(np.moveaxis(buf[..., :nt], -1, 0))
    out = dt * conv - 0.5 * dt * kernel.mult[0] * fhat
    return inverse_transform(spec, out, SPACE_TIME)


def heat_propagate(f: Field, t: float) -> Field:
    """e^{-t (-Lap)^(sigma/2)} f for a space_only slice (exact per mode)."""
    if f.domain != SPACE_ONLY:
        raise ValidationFault("heat_propagate acts on space_only slices")
    fhat = forward_transform(f)
    mult = np.exp(-t * f.spec.k_norm() ** f.spec.sigma)
    return inverse_transform(f.spec, mult * fhat, SPACE_ONLY)


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
    if mu <= 0:
        raise ValidationFault("mu must be positive")
    fhat = forward_transform(f)
    fhat = fhat * K_multiplier(f.spec, mu, g)
    if f.domain == SPACE_TIME:
        alpha = np.exp(-f.spec.dt / mu)
        for _ in range(g):
            fhat = _exp_filter(fhat, alpha)
    return inverse_transform(f.spec, fhat, f.domain)


def apply_P(f: Field, mu: float, g: int = 1) -> Field:
    """P_mu^g = [(1 + mu d_t)(1 - [mu]^2 Lap)]^g, inverse of apply_K."""
    if mu <= 0:
        raise ValidationFault("mu must be positive")
    fhat = forward_transform(f)
    fhat = fhat / K_multiplier(f.spec, mu, g)
    if f.domain == SPACE_TIME:
        alpha = np.exp(-f.spec.dt / mu)
        for _ in range(g):
            fhat = _exp_filter_inverse(fhat, alpha)
    return inverse_transform(f.spec, fhat, f.domain)


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
    if len(a) != 1 + d or any(ai < 0 for ai in a):
        raise ValidationFault(f"multi-index {a} must have 1+d nonnegative entries")
    if sum(a) > sigma_diamond(sigma):
        raise ValidationFault(
            "multi-index order above the supported truncation depth: "
            f"|a|={sum(a)} > sigma_diamond={sigma_diamond(sigma)}"
        )


def dot_G_moment_norms(
    spec: LatticeSpec,
    mu_grid,
    a: tuple,
    nu: float = 1.0,
    g: int | None = None,
    eps: float = DEFAULT_EPS,
    nt_local: int = 96,
):
    """L1 norms of the moment-weighted scale derivative, per mu.

    Returns a list of dicts with keys mu, raw (||X^a dG_mu||_L1) and
    dressed (||R_nu P_mu^g X^a dG_mu||_L1).  Each mu gets its own fine time
    grid over (mu, 2mu) (the support), so slopes are quadrature-clean.

    Expected scaling: raw ~ [mu]^{[a]}; dressed ~ [nu v mu]^{sigma-eps} *
    [mu]^{eps-sigma+[a]} -- at fixed nu >= mu the dressed log-log slope in
    [mu] is [a] - sigma + eps.
    """
    _check_moment_index(a, spec.d, spec.sigma)
    if g is None:
        g = default_g(spec.sigma)
    rows = []
    a0, abar = a[0], a[1:]
    from math import factorial

    ks = spec.k_norm()
    lam_nu = spec.scale_of(nu)
    e_r = spec.sigma - eps
    r_mult = 1.0 + (lam_nu * ks) ** e_r
    axes = tuple(range(-spec.d, 0))

    def apply_sin_weight(mult):
        # Periodic realization of the spatial moment weight: sin(x) per
        # axis, equal to x + O(x^3) where the kernel concentrates as
        # mu -> 0, and smooth across the torus seam (a raw x weight has a
        # seam jump whose slow spectral tail the P_mu factors would
        # amplify).  Applied spectrally -- sin(x) f is a rolled difference
        # in k -- so the kernel's e^{-t|k|^sigma} tail stays exact and the
        # large dressing factors never act on round-trip float noise.
        for c, deg in enumerate(abar):
            axis = axes[c]
            for _ in range(deg):
                mult = (np.roll(mult, 1, axis) - np.roll(mult, -1, axis)) / 2j
            if deg:
                mult = mult / factorial(deg)
        return mult

    for mu in mu_grid:
        lam = spec.scale_of(mu)
        t = np.linspace(mu, 2.0 * mu, nt_local)
        dtl = t[1] - t[0]
        w = -(t / mu**2) * chi_prime(t / mu)
        slices_k = w[(...,) + (None,) * spec.d] * np.exp(
            -t[(...,) + (None,) * spec.d] * ks[None] ** spec.sigma
        )
        # moment weight X^a = t^{a0}/a0! * prod sin(x_c)^{a_c}/a_c!
        slices_k = slices_k * t[(...,) + (None,) * spec.d] ** a0 / factorial(a0)
        weighted = apply_sin_weight(slices_k)

        def l1(mult):
            real = np.fft.ifftn(mult, axes=axes).real
            return float(np.sum(np.abs(real))) * spec.dx**spec.d * dtl

        raw = l1(weighted)
        # dressed norm: R_nu P_mu^g applied to the weighted kernel
        wk = weighted * (1.0 + lam**2 * ks**2) ** g * r_mult
        for _ in range(g):
            dd = np.gradient(wk, dtl, axis=0)
            wk = wk + mu * dd
        rows.append({"mu": float(mu), "raw": raw, "dressed": l1(wk)})
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

    Midpoint rule in log mu over geometric cells.  Returns (reconstructed,
    direct); their gap is pure mu-quadrature error and at least halves under
    refinement of cells_per_octave (mu_min stays fixed).
    """
    mu_min = T * 2.0**-n_octaves
    direct = convolve(cutoff_heat(spec, mu_min), f)
    acc = convolve(cutoff_heat(spec, T), f).data.copy()
    edges = T * 2.0 ** (-np.arange(0, n_octaves * cells_per_octave + 1) / cells_per_octave)
    for i in range(len(edges) - 1):
        hi_e, lo_e = edges[i], edges[i + 1]
        mid = np.sqrt(hi_e * lo_e)
        dmu = hi_e - lo_e
        acc -= dmu * convolve(dot_G(spec, mid), f).data
    return Field(spec, acc, SPACE_TIME), direct

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
    norms = dot_G_moment_norms(spec, mu_grid, a0, nt_local=48)
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
    for a in [(0, 0, 0), (1, 0, 0), (0, 1, 0)]:
        deg = spacetime_degree(a, spec2.sigma)
        norms = dot_G_moment_norms(spec2, mu_grid2, a, nt_local=48)
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
