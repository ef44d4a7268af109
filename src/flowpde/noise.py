"""Microscopic noise families and their macroscopic rescaling.

A microscopic noise Xi is stationary, centered, smooth, with unit covariance
integral and finite dependence range.  Its macroscopic counterpart is

    bold-Xi_nu(x) = [nu]^(-dim(Xi)) Xi(x0/nu, xbar/[nu]),   [nu] = nu^(1/sigma).

For mollified white noise Xi = M * W this is equivalent in law to convolving
a macroscopic space-time white noise with the L1-normalized rescaled
mollifier nu^(-1) [nu]^(-d) M(x0/nu, xbar/[nu]).  We generate the white noise
once per (master_seed, sample_index) substream, so every nu and every
mollifier family in an experiment is driven by the same realization: the
coupling used in the nu -> 0 comparisons, and a large variance reduction.

This module is the one place where W is transformed.  white_spectrum takes
the rows of W a driver reads to their white spectrum (rfft over space,
zero-padded FFT along time), and a SpectralDriver turns that into the drive
by one multiplier and one inverse time FFT, as the rfft half spectrum of
the slices it is built for.  W is drawn in full whatever the rows, so the
realization does not depend on them.  A caller that drives several cells
from one sample (harness) builds the spectrum once for all of them, and the
solver reads the half spectra as they come (solver.solve_stack);
sample_macroscopic_noise reads every slice and takes them to real space.

No stationary shift is built here: at i_rhd = 0 the shift path runs the
direct solve (solver.builds_shift), and a shift of order i_rhd >= 1 is
built per sample by solver.build_stationary_shift.

Every realized field is real, so it carries the Hermitian part of the
spatial mollifier multiplier; _spatial_multiplier returns that part, and the
sampler and the Wick sums (flow.WickCalculator) both read it.

Shot noise is a homogeneous Poisson cloud with a zero-mean kernel; couplings
across nu share the leading uniform points of the substream (a thinning).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationFault
from .lattice import SPACE_TIME, Field, LatticeSpec, fft_time, irfft_space, padded_length, rfft_space

MOLLIFIER_FAMILIES = ("bump", "skew")


def substream(master_seed: int, sample_index: int, label: str) -> np.random.Generator:
    """Counter-based substream: schedule-independent, collision-resistant."""
    digest = hashlib.blake2b(
        f"{master_seed}:{sample_index}:{label}".encode(), digest_size=16
    ).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


# -- mollifier profiles (microscopic units, support radius <= 1/2) ---------


def _bump(u: np.ndarray, half_width: float) -> np.ndarray:
    """Smooth bump supported on |u| < half_width, unnormalized."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    s = np.abs(u) / half_width
    inside = s < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


class MollifierProfile:
    """Separable mollifier M(s, x) = m_t(s) prod_j m_x(x_j), normalized so
    that the temporal integral and each spatial integral equal 1.  The
    temporal profile is causal (supported in s in (0, 1/2))."""

    def __init__(self, family: str):
        if family not in MOLLIFIER_FAMILIES:
            raise ValidationFault(f"unknown mollifier family {family!r}")
        self.family = family
        self._fine = np.linspace(-0.5, 0.5, 4097)
        self._du = self._fine[1] - self._fine[0]

    def temporal_raw(self, s):
        # causal: supported in (0, 1/2)
        s = np.asarray(s, dtype=float)
        if self.family == "bump":
            return _bump(s - 0.25, 0.25)
        return _bump(s - 0.15, 0.15) + 0.5 * _bump(s - 0.35, 0.15)

    def temporal(self, s) -> np.ndarray:
        fine = self._fine + 0.5  # quadrature grid covering (0, 1)
        norm = np.sum(self.temporal_raw(fine)) * self._du
        return self.temporal_raw(s) / norm

    def spatial_raw(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "bump":
            return _bump(x, 0.5)
        return _bump(x - 0.1, 0.4) + 0.6 * _bump(x + 0.25, 0.2)

    def spatial(self, x) -> np.ndarray:
        norm = np.sum(self.spatial_raw(self._fine)) * self._du
        return self.spatial_raw(x) / norm

    def spatial_hat(self, lam: float, n: int) -> np.ndarray:
        """Continuous Fourier transform of the normalized spatial profile at
        the frequencies lam * k of an n-point lattice axis, k in FFT order
        (LatticeSpec.axis_freqs); exact to quadrature error (the profile is
        smooth and compactly supported), and 1 at k = 0.

        The quadrature sum over the fine grid u_j = j du, |j| <= J, is
        sum_j f_j w^(k j) with w = exp(-i lam du): a chirp-z transform, as
        k j = (k^2 + j^2 - (k - j)^2) / 2 turns it into one convolution with
        the chirp w^(-l^2 / 2), done by FFTs of length >= n + 2J."""
        vals = self.spatial(self._fine) * self._du
        half_j = (vals.size - 1) // 2  # the fine grid is centered: u_j = j du
        j = np.arange(-half_j, half_j + 1)
        k = np.arange(-(n // 2), n - n // 2)  # ascending; reordered at the end
        lags = np.arange(k[0] - j[-1], k[-1] - j[0] + 1)  # every k - j
        c = 0.5 * lam * self._du

        def chirp(idx):
            return np.exp(-1j * c * (idx * idx).astype(float))

        m = padded_length(lags.size)  # no wrap reaches the n outputs read
        conv = np.fft.ifft(np.fft.fft(vals * chirp(j), m) * np.fft.fft(chirp(lags).conj(), m))
        # sum_j over lag k - j sits at index (k - j[0]) - lags[0] = k - k[0] + 2J
        out = chirp(k) * conv[2 * half_j : 2 * half_j + n]
        return np.fft.ifftshift(out)


@dataclass(frozen=True)
class NoiseModel:
    kind: str  # "mollified_white" | "poisson_shot"
    nu: float
    master_seed: int
    family: str = "bump"
    rate: float = 40.0  # poisson_shot intensity (microscopic units)
    resolution_policy: str = "strict"  # "strict" | "spectral"

    def __post_init__(self):
        if self.kind not in ("mollified_white", "poisson_shot"):
            raise ValidationFault(f"unknown noise kind {self.kind!r}")
        if not (0.0 < self.nu <= 1.0):
            raise ValidationFault(f"nu must lie in (0, 1], got {self.nu}")
        if self.resolution_policy not in ("strict", "spectral"):
            raise ValidationFault(f"unknown resolution_policy {self.resolution_policy!r}")
        object.__setattr__(self, "nu", float(self.nu))

    def profile(self) -> MollifierProfile:
        return MollifierProfile(self.family)

    def with_nu(self, nu: float) -> "NoiseModel":
        return dataclasses.replace(self, nu=nu)


def _check_resolution(model: NoiseModel, spec: LatticeSpec):
    lam = model.nu ** (1.0 / spec.sigma)
    if model.resolution_policy == "spectral":
        return
    if spec.dx > lam / 4.0 + 1e-12:
        raise ValidationFault(
            f"lattice under-resolves mollification scale: need dx <= [nu]/4 = "
            f"{lam / 4.0:.6g}, have dx = {spec.dx:.6g}"
        )
    if spec.dt > model.nu / 4.0 + 1e-12:
        raise ValidationFault(
            f"lattice under-resolves mollification scale: need dt <= nu/4 = "
            f"{model.nu / 4.0:.6g}, have dt = {spec.dt:.6g}"
        )


def extended_window(spec: LatticeSpec, history: float) -> LatticeSpec:
    """The sampling window enlarged backward so kernels supported in [0, 2]
    (times any truncation depth) act on the interior without edge effects."""
    if history <= 0:
        return spec
    pad = int(np.ceil(history / spec.dt)) * spec.dt
    return spec.with_window(spec.t_min - pad, spec.t_max)


def white_noise_slab(spec: LatticeSpec, rng: np.random.Generator) -> np.ndarray:
    """Discrete space-time white noise: iid N(0, 1/(dt dx^d)) per cell."""
    scale = 1.0 / np.sqrt(spec.dt * spec.dx**spec.d)
    return rng.standard_normal((spec.nt, *spec.space_shape())) * scale


def sample_macroscopic_noise(
    model: NoiseModel,
    spec: LatticeSpec,
    sample_index: int,
    history: float = 0.0,
) -> Field:
    """One reproducible sample of bold-Xi_nu on the (possibly extended)
    lattice window.  Mollified white noise is the noise driver of
    spectral_driver read over every slice."""
    if model.kind == "mollified_white":
        driver = spectral_driver(model, spec, history)
        data = irfft_space(driver.window(driver.spectrum(sample_index)), driver.spec)
        return Field(driver.spec, data, SPACE_TIME)
    _check_resolution(model, spec)
    return _sample_poisson_shot(model, extended_window(spec, history), sample_index)


def _tap_count(nu: float, dt: float) -> int:
    """The number of causal taps of the temporal profile at nu: the slices
    of (0, nu/2] and the one at s = 0."""
    return max(int(np.ceil(0.5 * nu / dt)) + 1, 1)


def _temporal_taps(model: NoiseModel, spec: LatticeSpec) -> np.ndarray:
    """Causal taps of the rescaled temporal profile m_t(s/nu)/nu, normalized
    so the discrete integral is exactly 1 (the grid realization of the
    unit-mass condition)."""
    prof = model.profile()
    n_tap = _tap_count(model.nu, spec.dt)
    s = spec.dt * np.arange(n_tap)
    taps = prof.temporal(s / model.nu) / model.nu
    total = taps.sum() * spec.dt
    if total <= 0:
        # under-resolved in time: collapse to a single tap of unit mass
        taps = np.zeros(n_tap)
        taps[0] = 1.0 / spec.dt
        return taps
    return taps / (total)


def _spatial_multiplier(model: NoiseModel, spec: LatticeSpec) -> np.ndarray:
    """The Hermitian part (M(k) + conj M(-k)) / 2 of M(k) = m_hat([nu] k)
    on the lattice's modes: the multiplier every real field realizes, as
    taking the real part (or irfft) keeps only that part.  It differs from M
    only where a mode is its own mirror (a Nyquist index), and to rounding.
    Cached and read-only, as it depends on neither the time window nor the
    seed."""
    return _cached_multiplier(model.family, model.nu, spec.n, spec.d, spec.sigma)


@functools.lru_cache(maxsize=32)
def _cached_multiplier(family: str, nu: float, n: int, d: int, sigma: float) -> np.ndarray:
    hat1d = MollifierProfile(family).spatial_hat(nu ** (1.0 / sigma), n)
    mult = hat1d
    for _ in range(d - 1):
        mult = np.multiply.outer(mult, hat1d)
    axes = tuple(range(d))
    mult = 0.5 * (mult + np.roll(np.flip(mult, axes), 1, axes).conj())  # conj M(-k)
    mult.setflags(write=False)
    return mult


# -- the map from white noise to a drive ----------------------------------


def white_spectrum(master_seed: int, sample_index: int, spec: LatticeSpec, m: int, rows: tuple) -> np.ndarray:
    """The white spectrum of one sample: the white noise W of the
    (master_seed, sample_index) substream on `spec`, drawn in full, its
    slices rows = (lo, stop), rfft over space, then the FFT along time
    zero-padded to m points, time-last: shape (n, ..., n // 2 + 1, m).
    Every drive of the sample is this spectrum times one multiplier, so W
    is drawn and transformed once however many cells read it."""
    w = white_noise_slab(spec, substream(master_seed, sample_index, "white"))
    return fft_time(rfft_space(w[rows[0] : rows[1]], spec.d), m)


class SpectralDriver(NamedTuple):
    """The noise as a spectral multiplier on the white spectrum of W's
    slices rows = (lo, stop): the drive's slices are the inverse time FFT
    of multiplier * spectrum.  The multiplier is space[..., None] * time:
    space on the rfft half of the frequency grid, (n, ..., n // 2 + 1);
    time with m frequencies, m the least 5-smooth length with room for the
    rows plus the longest taps among the drivers that share the spectrum,
    so no slice read wraps."""

    master_seed: int
    spec: LatticeSpec  # the sampling window W covers
    rows: tuple  # (lo, stop): the slices of W the spectrum transforms
    reads: slice  # the slices of `spec` that window() returns
    space: np.ndarray
    time: np.ndarray

    @property
    def key(self) -> tuple:
        """Drivers with one key share the spectrum() of each sample."""
        return (self.master_seed, self.spec, self.rows, self.time.size)

    def spectrum(self, sample_index: int) -> np.ndarray:
        """The sample's white spectrum, which every driver with this key
        shares."""
        return white_spectrum(self.master_seed, sample_index, self.spec, self.time.size, self.rows)

    def window(self, spectrum: np.ndarray) -> np.ndarray:
        """The drive on the slices `reads` of the sample whose spectrum()
        is given, as its rfft half spectrum over space: a contiguous
        (slices, n, ..., n // 2 + 1) array."""
        buf = spectrum * self.space[..., None]
        buf *= self.time
        np.fft.ifft(buf, axis=-1, out=buf)
        lo = self.rows[0]
        picked = buf[..., self.reads.start - lo : self.reads.stop - lo]
        return np.ascontiguousarray(np.moveaxis(picked, -1, 0))


def spectral_driver(
    model: NoiseModel,
    spec: LatticeSpec,
    history: float = 0.0,
    reads: slice | None = None,
    nu_max: float = 1.0,
) -> SpectralDriver:
    """The driver of bold-Xi_nu on `spec` extended backward by `history`,
    read at the slices `reads` of the extended window (every slice by
    default).

    Its multiplier is dt tap_hat(omega) m_hat([nu] k): the spatial
    mollifier and the causal temporal taps, with W zero before the window
    start.  A slice j depends on W[j - taps + 1 : j + 1] only, so the
    driver transforms the rows W[lo:stop], lo = max(0, start - (taps - 1)),
    zero-padded to m = padded_length(stop - lo + taps), with the taps of
    nu_max, the largest nu among the drivers meant to share the spectrum.
    sample_macroscopic_noise reads every slice at nu_max = 1 (m = 1215 for
    nt = 1001 at dt = 0.0025); criterion 7's solve window, the last 201 of
    those slices, reads W[760:1001] at nu_max = 0.2 (m = 288)."""
    if model.kind != "mollified_white":
        raise ValidationFault(f"no spectral driver for {model.kind} noise")
    if not model.nu <= nu_max <= 1.0:
        raise ValidationFault(f"nu_max must lie in [nu, 1] = [{model.nu:g}, 1], got {nu_max}")
    _check_resolution(model, spec)
    ext = extended_window(spec, history)
    start, stop = (0, ext.nt) if reads is None else (reads.start, reads.stop)
    taps = _tap_count(nu_max, ext.dt)
    lo = max(0, start - (taps - 1))
    m = padded_length(stop - lo + taps)
    space = _spatial_multiplier(model, ext)[..., : ext.n // 2 + 1]
    time = ext.dt * np.fft.fft(_temporal_taps(model, ext), n=m)
    return SpectralDriver(model.master_seed, ext, (lo, stop), slice(start, stop), space, time)


# -- shot noise ------------------------------------------------------------


def _shot_profiles(prof: MollifierProfile):
    """Zero-mean shot kernel built from two nested bumps: M0 = b1 - alpha b2
    with alpha chosen so the space-time integral vanishes.  Asymmetric in
    value, so odd cumulants survive."""
    fine = prof._fine
    du = prof._du
    t1 = _bump(fine - 0.15, 0.15)
    t2 = _bump(fine - 0.25, 0.25)
    x1 = _bump(fine, 0.25)
    x2 = _bump(fine, 0.5)
    i_t1, i_t2 = t1.sum() * du, t2.sum() * du
    i_x1, i_x2 = x1.sum() * du, x2.sum() * du
    return (t1, t2, x1, x2, i_t1, i_t2, i_x1, i_x2, fine, du)


def shot_kernel_constants(model: NoiseModel, d: int):
    """(alpha, c) with M = c (b1 - alpha b2), alpha enforcing integral 0 and
    c enforcing rate * integral(M^2) = 1."""
    prof = model.profile()
    t1, t2, x1, x2, i_t1, i_t2, i_x1, i_x2, fine, du = _shot_profiles(prof)
    alpha = (i_t1 * i_x1**d) / (i_t2 * i_x2**d)
    # integral of (b1 - alpha b2)^2 over time x space (separable pieces)
    def cross(f, g):
        return np.sum(f * g) * du

    m2 = (
        cross(t1, t1) * cross(x1, x1) ** d
        - 2 * alpha * cross(t1, t2) * cross(x1, x2) ** d
        + alpha**2 * cross(t2, t2) * cross(x2, x2) ** d
    )
    c = 1.0 / np.sqrt(model.rate * m2)
    return alpha, c


def shot_third_cumulant_oracle(model: NoiseModel, d: int) -> float:
    """Closed-form third cumulant at lag 0 of the microscopic shot noise:
    rate * integral(M^3)."""
    if d != 1:
        raise ValidationFault("shot third-cumulant oracle implemented for d = 1")
    prof = model.profile()
    t1, t2, x1, x2, *_rest, fine, du = _shot_profiles(prof)
    alpha, c = shot_kernel_constants(model, d)
    M = c * (np.multiply.outer(t1, x1) - alpha * np.multiply.outer(t2, x2))
    return float(model.rate * np.sum(M**3) * du * du)


def _sample_poisson_shot(model: NoiseModel, spec: LatticeSpec, sample_index: int) -> Field:
    if spec.d != 1:
        raise ValidationFault("poisson_shot sampling implemented for d = 1")
    rng = substream(model.master_seed, sample_index, "shot")
    nu = model.nu
    lam = nu ** (1.0 / spec.sigma)
    window_t = spec.t_max - spec.t_min
    # microscopic volume of the (kernel-padded) macroscopic window
    vol = ((window_t + 0.5 * nu) / nu) * ((2.0 * np.pi) / lam)
    n_pts = rng.poisson(model.rate * vol)
    # uniforms drawn in a fixed order so coarser nu reuse the leading points
    u = rng.random((n_pts, 2))
    t_pts = spec.t_min - 0.5 * nu + u[:, 0] * (window_t + 0.5 * nu)
    x_pts = u[:, 1] * 2.0 * np.pi
    alpha, c = shot_kernel_constants(model, spec.d)
    prof = model.profile()
    amp = lam ** (-(spec.d + spec.sigma) / 2.0)
    out = np.zeros((spec.nt, spec.n))
    times = spec.times()
    xs = spec.dx * np.arange(spec.n)
    half_t = 0.5 * nu
    for tp, xp in zip(t_pts, x_pts):
        j0 = max(int(np.floor((tp - spec.t_min) / spec.dt)), 0)
        j1 = min(int(np.ceil((tp + half_t - spec.t_min) / spec.dt)) + 1, spec.nt)
        if j1 <= j0:
            continue
        s = (times[j0:j1] - tp) / nu
        dx_wrap = (xs - xp + np.pi) % (2.0 * np.pi) - np.pi
        sel = np.abs(dx_wrap) <= 0.5 * lam
        if not sel.any():
            continue
        xr = dx_wrap[sel] / lam
        mt = _bump(s - 0.15, 0.15)
        mt2 = _bump(s - 0.25, 0.25)
        mx = _bump(xr, 0.25)
        mx2 = _bump(xr, 0.5)
        block = c * (np.multiply.outer(mt, mx) - alpha * np.multiply.outer(mt2, mx2))
        out[j0:j1, sel] += amp * block
    return Field(spec, out, SPACE_TIME)


# -- empirical cumulants ---------------------------------------------------


@dataclass
class CumulantEstimate:
    order: int
    lags: list
    values: np.ndarray
    standard_errors: np.ndarray
    samples: int


def _shifted(data: np.ndarray, lag, d: int) -> np.ndarray:
    """Shift a (samples, nt, space...) stack by a space-time lag in grid
    units; time shifts crop, space shifts roll (periodic)."""
    lag = tuple(int(x) for x in np.atleast_1d(lag))
    if len(lag) == d:
        lag = (0, *lag)
    t_sh, sp_sh = lag[0], lag[1:]
    out = data
    for axis, sh in enumerate(sp_sh):
        if sh:
            out = np.roll(out, -sh, axis=2 + axis)
    return out, t_sh


def estimate_cumulants(fields: list, order: int, lags: list) -> CumulantEstimate:
    """Joint cumulant kappa(Xi(x), Xi(x + l_1), ..., Xi(x + l_(order-1))),
    estimated with k-statistics across samples and averaged over the lattice
    (stationarity).  Standard errors by leave-one-out jackknife."""
    if order > 4 or order < 1:
        raise ValidationFault("cumulant order must be in 1..4")
    if len(fields) < max(2, order):
        raise ValidationFault(f"need at least {max(2, order)} samples, got {len(fields)}")
    spec = fields[0].spec
    data = np.stack([f.data for f in fields])  # (N, nt, space...)
    N = data.shape[0]
    vals, errs = [], []
    for lag_set in lags:
        lag_set = _normalize_lagset(lag_set, order, spec.d)
        # crop the common valid time range across all time shifts
        t_shifts = [ls[0] for ls in lag_set]
        lo = -min(min(t_shifts), 0)
        hi = data.shape[1] - max(max(t_shifts), 0)
        cols = []
        for ls in lag_set:
            arr, t_sh = _shifted(data, ls, spec.d)
            cols.append(arr[:, lo + t_sh : hi + t_sh].reshape(N, -1))
        full = _k_statistic(cols, order)
        loo = np.array(
            [
                _k_statistic([np.delete(c, i, axis=0) for c in cols], order)
                for i in range(N)
            ]
        )
        se = np.sqrt((N - 1) / N * np.sum((loo - loo.mean()) ** 2))
        vals.append(full)
        errs.append(se)
    return CumulantEstimate(order, list(lags), np.array(vals), np.array(errs), N)


def _normalize_lagset(lag_set, order: int, d: int):
    """A lag set is (order - 1) space-time lags; the base point has lag 0."""
    lag_set = list(lag_set) if order > 2 else [lag_set] if order == 2 else []
    if order >= 2 and len(lag_set) != order - 1:
        raise ValidationFault(f"order-{order} cumulant needs {order - 1} lags")
    out = [(0,) * (d + 1)]
    for ls in lag_set:
        ls = tuple(int(x) for x in np.atleast_1d(ls))
        if len(ls) == d:
            ls = (0, *ls)
        if len(ls) != d + 1:
            raise ValidationFault(f"lag must have {d} or {d + 1} entries, got {ls}")
        out.append(ls)
    return out


def _k_statistic(cols: list, order: int) -> float:
    """Multivariate k-statistics (unbiased through order 3, standard k4),
    averaged over lattice positions."""
    N = cols[0].shape[0]
    if order > 1 and N < order:
        return float("nan")  # k-statistic of order k needs at least k samples
    cen = [c - c.mean(axis=0, keepdims=True) for c in cols]
    if order == 1:
        return float(cols[0].mean())
    if order == 2:
        return float((cen[0] * cen[1]).sum(axis=0).mean() / (N - 1))
    if order == 3:
        s = (cen[0] * cen[1] * cen[2]).sum(axis=0).mean()
        return float(N * s / ((N - 1) * (N - 2)))
    s4 = (cen[0] * cen[1] * cen[2] * cen[3]).mean(axis=0)
    p12 = (cen[0] * cen[1]).mean(axis=0) * (cen[2] * cen[3]).mean(axis=0)
    p13 = (cen[0] * cen[2]).mean(axis=0) * (cen[1] * cen[3]).mean(axis=0)
    p14 = (cen[0] * cen[3]).mean(axis=0) * (cen[1] * cen[2]).mean(axis=0)
    k4 = (
        N**2
        / ((N - 1) * (N - 2) * (N - 3))
        * ((N + 1) * s4 - (N - 1) * (p12 + p13 + p14))
    )
    return float(k4.mean())
