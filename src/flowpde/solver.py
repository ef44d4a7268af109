"""Mild-equation solver: exponential time differencing, the stationary
shift decomposition, window patching and blow-up detection.

The mild macroscopic equation Phi = G * (1_[0,inf) F_nu[Phi] + delta_0 x phi)
is advanced per Fourier mode with the exact linear factor exp(-dt |k|^sigma)
and phi-function weights on the force (ETD1 / ETD2RK), all on the rfft half
of the modes, blow-up monitor included.  The initial pairing delta_0 x phi
enters exactly as the semigroup image of phi, never as a grid delta.

solve_stack is the one solve: it compiles the force, runs the stepping loop
for a stack of samples along a leading axis (each sample matches its own
solve bit for bit) and owns the one solve rule, the Da Prato-Debussche split
Phi = D + R.  All of the noise sits in the driver D = S - e^(-t|k|^sigma) S(0),
zero at t = 0: S = G * (1_[0,inf) Xi) on the direct path, by the trapezoid
rule of kernels.convolve, and Phi_shift = (G - G_1) * f_shift from the
pathwise hierarchy on the shift path.  The remainder R starts at phi and
solves Q R = N[R + D], with N = F_nu - Xi_nu the polynomial part of the
force, so the dealias mask only sees N and the blow-up monitor measures R.
solve_mild, solve_with_patching and solve_decomposed are its one-sample
callers.

A stationary shift is built only at stationary order i_rhd >= 1
(builds_shift; the harness and solve_decomposed, hence the CLI's --shift,
read it).  At i_rhd = 0 the shift is (G - G_1) * Xi, and since
Q (G - G_1) = delta - chi'.G its driver is the direct one less
G * (1_[0,inf) c), c = (chi'.G) * Xi: adding c back gives the direct
driver, so a solve that asks for the shift at i_rhd = 0 runs the direct one.

The solver never transforms white noise: solve_stack reads each sample's
driving field on its window_slices as the rfft half spectrum over space,
the representation its driver stage and stepping loop work in.  A field's
window_spectrum gives it; the harness's coupled cells hand over the half
spectra of the noise module's spectral drivers as they come, never in real
space.
build_stationary_shift is the general shift, for every stationary order
and noise kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFault, ValidationFault
from .kernels import DEFAULT_EPS, check_fluctuation_window
from .lattice import SPACE_ONLY, SPACE_TIME, Field, LatticeSpec, check_whole_steps, irfft_space, rfft_space
from .model import ModelSpec, compile_force
from .model import evaluate_force  # noqa: F401  looked up here by perfbench/tracing.py
from .norms import c_gamma_multiplier
from .norms import c_gamma_norm  # noqa: F401  looked up here by perfbench/tracing.py

STATUS_COMPLETED = "completed"
STATUS_BLEW_UP = "blew_up"


@dataclass(frozen=True)
class SolveConfig:
    scheme: str = "etd_rk2"  # "etd1" | "etd_rk2"
    t_local: float = 0.25
    blow_up_radius: float = 50.0
    max_horizon: float = 1.0
    dealias: bool = True
    gamma: float | None = None  # default sigma - eps

    def __post_init__(self):
        if self.scheme not in ("etd1", "etd_rk2"):
            raise ValidationFault(f"unknown scheme {self.scheme!r}")
        if not (0.0 < self.t_local <= 1.0):
            raise ValidationFault("local window length must lie in (0, 1]")
        if not self.blow_up_radius > 1.0:
            raise ValidationFault("blow-up radius must exceed 1")
        if not (math.isfinite(self.max_horizon) and self.max_horizon > 0.0):
            raise ValidationFault(f"max_horizon must be finite and positive, got {self.max_horizon}")
        if self.gamma is not None and not math.isfinite(self.gamma):
            raise ValidationFault(f"gamma must be finite, got {self.gamma}")


@dataclass
class SolveResult:
    trajectory: Field
    breve_T: float
    status: str
    slice_norms: np.ndarray


def _phi1(z: np.ndarray) -> np.ndarray:
    """phi_1(z) = (e^z - 1)/z, stable near 0."""
    small = np.abs(z) < 1e-8
    zs = np.where(small, 1.0, z)
    out = (np.expm1(zs)) / zs
    return np.where(small, 1.0 + z / 2.0, out)


def _phi2(z: np.ndarray) -> np.ndarray:
    """phi_2(z) = (e^z - 1 - z)/z^2, stable near 0."""
    small = np.abs(z) < 1e-5
    zs = np.where(small, 1.0, z)
    out = (np.expm1(zs) - zs) / zs**2
    return np.where(small, 0.5 + z / 6.0, out)


def _dealias_mask(spec: LatticeSpec) -> np.ndarray:
    """2/3-rule mask on the spatial modes."""
    return np.all(np.abs(spec.freq_grids()) <= spec.n / 3.0, axis=0)


def _slice_index(fs: LatticeSpec, t: float) -> int:
    j = int(round((t - fs.t_min) / fs.dt))
    if j < 0 or j >= fs.nt:
        raise ValidationFault(f"time {t} outside the noise window")
    return j


def _n_steps(spec: LatticeSpec, cfg: SolveConfig) -> int:
    return int(round(min(cfg.max_horizon, spec.t_max) / spec.dt))


def window_slices(fs: LatticeSpec, spec: LatticeSpec, cfg: SolveConfig) -> slice:
    """The time slices of a noise or shift field on `fs` that a solve on
    `spec` from t = 0 reads: one per step and the end slice (read by the
    second ETD2RK stage and by the decomposed total).  The field must share
    the solve's d, n, dt and sigma, and t = 0 must be one of its slices."""
    if (fs.d, fs.n, fs.dt) != (spec.d, spec.n, spec.dt):
        raise ValidationFault("driving field lattice does not match the solve lattice")
    if fs.sigma != spec.sigma:
        raise ValidationFault(f"driving field has sigma {fs.sigma:g}, the solve {spec.sigma:g}")
    check_whole_steps(-fs.t_min, spec.dt, "the driving field's start t_min")
    n_steps = _n_steps(spec, cfg)
    j0 = _slice_index(fs, 0.0)
    _slice_index(fs, n_steps * spec.dt)
    return slice(j0, j0 + n_steps + 1)


def solve_window(field: Field, spec: LatticeSpec, cfg: SolveConfig) -> np.ndarray:
    """The window_slices of a driving field: a view into field.data."""
    return field.data[window_slices(field.spec, spec, cfg)]


def window_spectrum(field: Field, spec: LatticeSpec, cfg: SolveConfig) -> np.ndarray:
    """The solve_window of a driving field as solve_stack reads it: its
    rfft_space half spectrum, (slices, n, ..., n // 2 + 1)."""
    return rfft_space(solve_window(field, spec, cfg), spec.d)


def _march(force, phi, drive, cfg: SolveConfig, spec: LatticeSpec) -> list:
    """The stepping loop, for a stack of samples along the leading axis.

    `phi` holds the initial slices of R; `drive`, when given, each sample's
    driver D on its solve_window slices, and the force is N[R + D].  The
    state is R's rfft half; its linear part is exact per mode, the force
    gets ETD1 / ETD2RK phi-function weights.  At the end of each local
    window of t_local the state restarts from its real slice, as a fresh
    solve from that slice would.  A sample whose c_gamma norm, read from
    the state, reaches the blow-up radius stops there and leaves the
    stack; a non-finite slice in the stack faults.  Returns one
    SolveResult per sample.
    """
    dt = spec.dt
    n_steps = _n_steps(spec, cfg)
    per_window = max(int(round(cfg.t_local / dt)), 1)
    gamma = cfg.gamma if cfg.gamma is not None else spec.sigma - DEFAULT_EPS
    norm_mult = c_gamma_multiplier(spec, gamma)
    half = spec.n // 2 + 1
    lin = -dt * spec.k_norm()[..., :half] ** spec.sigma
    e_lin = np.exp(lin)
    w1 = dt * _phi1(lin)
    w2 = dt * _phi2(lin)
    mask = _dealias_mask(spec)[..., :half] if cfg.dealias else None
    d = spec.d

    def force_hat(data: np.ndarray, j: int) -> np.ndarray:
        f = rfft_space(force(data if drive is None else data + drive[:, j]), d)
        return f if mask is None else f * mask

    def monitor(phi_hat: np.ndarray) -> np.ndarray:
        return np.max(np.abs(irfft_space(norm_mult * phi_hat, spec)), axis=tuple(range(-d, 0)))

    samples = phi.shape[0]
    traj = np.empty((samples, n_steps + 1, *spec.space_shape()))
    norms = np.full((samples, n_steps + 1), np.nan)
    traj[:, 0] = phi
    last = np.full(samples, n_steps)
    breve_T = np.empty(samples)
    blown = np.zeros(samples, dtype=bool)
    live = np.arange(samples)
    t_win, j_win = 0.0, 0
    phi_hat = rfft_space(phi, d)
    norms[:, 0] = monitor(phi_hat)
    data = irfft_space(phi_hat, spec)
    for j in range(1, n_steps + 1):
        f0 = force_hat(data, j - 1)
        phi_hat = e_lin * phi_hat + w1 * f0
        if cfg.scheme == "etd_rk2":
            a_data = irfft_space(phi_hat, spec)
            phi_hat = phi_hat + w2 * (force_hat(a_data, j) - f0)
        data = irfft_space(phi_hat, spec)
        if not np.all(np.isfinite(data)):
            raise NumericalFault(
                f"numerical overflow before threshold at t = {t_win + (j - j_win) * dt:.6g}"
            )
        traj[live, j] = data
        norms[live, j] = sup = monitor(phi_hat)
        stop = sup >= cfg.blow_up_radius
        if stop.any():
            last[live[stop]] = j
            breve_T[live[stop]] = t_win + (j - j_win) * dt
            blown[live[stop]] = True
            keep = ~stop
            live, phi_hat, data = live[keep], phi_hat[keep], data[keep]
            drive = None if drive is None else drive[keep]
            if not live.size:
                break
        if j % per_window == 0 and j < n_steps:
            t_win, j_win = t_win + per_window * dt, j
            phi_hat = rfft_space(data, d)
            data = irfft_space(phi_hat, spec)
    breve_T[live] = t_win + (n_steps - j_win) * dt
    out = []
    for s in range(samples):
        window = spec.with_window(0.0, last[s] * dt)
        field = Field(window, traj[s, : last[s] + 1], SPACE_TIME)
        status = STATUS_BLEW_UP if blown[s] else STATUS_COMPLETED
        out.append(SolveResult(field, float(breve_T[s]), status, norms[s, : last[s] + 1]))
    return out


def _driver_stage(spec: LatticeSpec, noise: np.ndarray | None, shift: np.ndarray | None):
    """solve_stack's driver D = S - e^(-t|k|^sigma) S[:, 0] in real space,
    zero at t = 0, from the half spectrum of each sample's noise window
    (S = G * (1_[0,inf) noise), by kernels.convolve's trapezoid rule: dt on
    every slice of [0, t], half of it at t) or of its shift window
    (S = shift); None when neither is given.  Its inputs stay as they are."""
    s_hat = shift if noise is None else noise
    if s_hat is None:
        return None
    ks = spec.k_norm()[..., : spec.n // 2 + 1] ** spec.sigma
    heat = np.exp(-np.multiply.outer(spec.dt * np.arange(s_hat.shape[1]), ks))
    if noise is not None:
        acc = noise.copy()
        for j in range(1, acc.shape[1]):
            acc[:, j] += heat[1] * acc[:, j - 1]
        acc -= 0.5 * noise
        s_hat = spec.dt * acc
    drive = irfft_space(s_hat - heat * s_hat[:, :1], spec)
    drive[:, 0] = 0.0
    return drive


def solve_stack(
    model: ModelSpec,
    counterterms,
    phi_init: Field,
    cfg: SolveConfig,
    noise: np.ndarray | None = None,
    shift: np.ndarray | None = None,
) -> list:
    """Solve a stack of samples from phi_init at t = 0, each sample's
    driving field given along the leading axis as the rfft_space half
    spectrum of its solve_window slices, (samples, slices, n, ..., n // 2 + 1)
    (one sample, undriven, when neither is given).

    The one rule of the module docstring, with S = G * (1_[0,inf) noise) or
    S = shift: R starts at phi_init and solves N[R + D] with the driver
    D = S - e^(-t|k|^sigma) S[:, 0], set to zero at t = 0; each result holds
    the total R + D, and its slice_norms are those of R."""
    spec = phi_init.spec
    if phi_init.domain != SPACE_ONLY:
        raise ValidationFault("initial data must be a space_only slice")
    nu = model.noise.nu if model.noise is not None else 1.0
    force = compile_force(model, counterterms, nu, spec)
    drive = _driver_stage(spec, noise, shift)
    samples = 1 if drive is None else drive.shape[0]
    phi = np.broadcast_to(phi_init.data, (samples, *spec.space_shape()))
    results = _march(force, phi, drive, cfg, spec)
    if drive is not None:
        for res, dr in zip(results, drive):
            rem = res.trajectory
            res.trajectory = Field(rem.spec, rem.data + dr[: rem.data.shape[0]], SPACE_TIME)
    return results


def solve_mild(
    model: ModelSpec,
    counterterms,
    noise: Field | None,
    phi_init: Field,
    cfg: SolveConfig,
) -> SolveResult:
    """The direct path for one sample: solve_stack on the window_spectrum
    of `noise` (none: the undriven equation)."""
    window = None if noise is None else window_spectrum(noise, phi_init.spec, cfg)[None]
    return solve_stack(model, counterterms, phi_init, cfg, noise=window)[0]


def solve_with_patching(
    model: ModelSpec,
    counterterms,
    noise: Field | None,
    phi_init: Field,
    cfg: SolveConfig,
) -> SolveResult:
    """The patched solve over local windows of t_local: solve_mild, which
    re-anchors at every seam."""
    return solve_mild(model, counterterms, noise, phi_init, cfg)


def build_stationary_shift(model: ModelSpec, counterterms, noise: Field) -> Field:
    """Phi_shift = (G - G_1) * f_shift with f_shift = sum_(i <= i_rhd)
    lambda^i f^i from the pathwise hierarchy, to the model's stationary
    truncation order i_rhd."""
    from .flow import expand_pathwise, stationary_sum

    check_fluctuation_window(noise.spec)
    expansion = expand_pathwise(model, counterterms, noise, model.i_rhd)
    return stationary_sum(expansion, model.lam, model.i_rhd)


def builds_shift(model: ModelSpec, use_shift: bool) -> bool:
    """Whether a solve that asks for the stationary shift (`use_shift`)
    builds one: only at stationary order i_rhd >= 1.  At i_rhd = 0 both
    settings run the direct solve (module docstring)."""
    return use_shift and model.i_rhd >= 1


def solve_decomposed(
    model: ModelSpec,
    counterterms,
    noise: Field,
    phi_init: Field,
    cfg: SolveConfig,
) -> SolveResult:
    """The shift path for one sample: solve_stack with S the window_spectrum
    of the sample's stationary shift Phi_shift, or solve_mild where
    builds_shift says no shift is built."""
    if not builds_shift(model, True):
        return solve_mild(model, counterterms, noise, phi_init, cfg)
    shift = build_stationary_shift(model, counterterms, noise)
    window = window_spectrum(shift, phi_init.spec, cfg)[None]
    return solve_stack(model, counterterms, phi_init, cfg, shift=window)[0]
