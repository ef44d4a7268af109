"""Mild-equation solver: exponential time differencing, the stationary
shift decomposition, window patching and blow-up detection.

The mild macroscopic equation Phi = G * (1_[0,inf) F_nu[Phi] + delta_0 x phi)
is advanced per Fourier mode with the exact linear factor exp(-dt |k|^sigma)
and phi-function weights on the force (ETD1 / ETD2RK).  The initial pairing
delta_0 x phi enters exactly as the semigroup image of phi, never as a grid
delta.

solve_stack is the one solve: it compiles the force, runs the stepping loop
for a stack of samples along a leading axis (each sample matches its own
solve bit for bit) and owns the decomposition rule.  A sample is driven
either directly, by its noise as the additive term of the force, or through
the Da Prato-Debussche split Phi = Phi_shift + remainder, where
Phi_shift = (G - G_1) * f_shift is built from the pathwise hierarchy and the
remainder starts at phi - Phi_shift(0) and solves the shifted force
F_nu[phi + Phi_shift] - f_shift, in which the noise cancels.  solve_mild,
solve_with_patching and solve_decomposed are its one-sample callers.

The solver never transforms white noise: it reads each sample's driving
field as its window_slices, which come either from a field (solve_window)
or, for the harness's coupled cells, straight from the noise module's
spectral drivers, which compute only those slices.  build_stationary_shift
is the general shift, for every stationary order and noise kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFault, ValidationFault
from .kernels import DEFAULT_EPS, check_fluctuation_window
from .lattice import SPACE_ONLY, SPACE_TIME, Field, LatticeSpec, check_whole_steps, fft_space, ifft_space
from .model import ModelSpec, compile_force
from .model import evaluate_force  # noqa: F401  looked up here by perfbench/tracing.py
from .norms import c_gamma_multiplier, c_gamma_sup
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
    parts: dict = field(default_factory=dict)


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
    k = np.abs(spec.axis_freqs())
    cut = spec.n / 3.0
    mask1d = k <= cut
    mask = mask1d
    for _ in range(spec.d - 1):
        mask = np.multiply.outer(mask, mask1d)
    return mask


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


def _march(force, phi, noise, shift, cfg: SolveConfig, spec: LatticeSpec) -> list:
    """The stepping loop, for a stack of samples along the leading axis.

    `phi` holds the initial slices; `noise` or `shift`, when given, each
    sample's solve_window slices.  The linear part is exact per Fourier
    mode, the force gets ETD1 / ETD2RK phi-function weights.  At the end of
    each local window of t_local the state restarts from its real slice, as
    a fresh solve from that slice would.  A sample whose c_gamma norm
    reaches the blow-up radius stops there and leaves the stack; a
    non-finite slice in the stack faults.  Returns one SolveResult per
    sample.
    """
    dt = spec.dt
    n_steps = _n_steps(spec, cfg)
    per_window = max(int(round(cfg.t_local / dt)), 1)
    gamma = cfg.gamma if cfg.gamma is not None else spec.sigma - DEFAULT_EPS
    norm_mult = c_gamma_multiplier(spec, gamma)
    lin = -dt * spec.k_norm() ** spec.sigma
    e_lin = np.exp(lin)
    w1 = dt * _phi1(lin)
    w2 = dt * _phi2(lin)
    mask = _dealias_mask(spec) if cfg.dealias else None
    d = spec.d

    def force_hat(data: np.ndarray, j: int) -> np.ndarray:
        if shift is not None:
            f = force(data + shift[:, j])
        elif noise is not None:
            f = force(data, noise[:, j])
        else:
            f = force(data)
        f = fft_space(f, d)
        return f if mask is None else f * mask

    samples = phi.shape[0]
    traj = np.empty((samples, n_steps + 1, *spec.space_shape()))
    norms = np.full((samples, n_steps + 1), np.nan)
    traj[:, 0] = phi
    norms[:, 0] = c_gamma_sup(phi, norm_mult)
    last = np.full(samples, n_steps)
    breve_T = np.empty(samples)
    blown = np.zeros(samples, dtype=bool)
    live = np.arange(samples)
    t_win, j_win = 0.0, 0
    phi_hat = fft_space(phi, d)
    data = ifft_space(phi_hat, d).real
    for j in range(1, n_steps + 1):
        f0 = force_hat(data, j - 1)
        phi_hat = e_lin * phi_hat + w1 * f0
        if cfg.scheme == "etd_rk2":
            a_data = ifft_space(phi_hat, d).real
            phi_hat = phi_hat + w2 * (force_hat(a_data, j) - f0)
        data = ifft_space(phi_hat, d).real
        if not np.all(np.isfinite(data)):
            raise NumericalFault(
                f"numerical overflow before threshold at t = {t_win + (j - j_win) * dt:.6g}"
            )
        traj[live, j] = data
        norms[live, j] = sup = c_gamma_sup(data, norm_mult)
        stop = sup >= cfg.blow_up_radius
        if stop.any():
            last[live[stop]] = j
            breve_T[live[stop]] = t_win + (j - j_win) * dt
            blown[live[stop]] = True
            keep = ~stop
            live, phi_hat, data = live[keep], phi_hat[keep], data[keep]
            noise = None if noise is None else noise[keep]
            shift = None if shift is None else shift[keep]
            if not live.size:
                break
        if j % per_window == 0 and j < n_steps:
            t_win, j_win = t_win + per_window * dt, j
            phi_hat = fft_space(data, d)
            data = ifft_space(phi_hat, d).real
    breve_T[live] = t_win + (n_steps - j_win) * dt
    out = []
    for s in range(samples):
        window = spec.with_window(0.0, last[s] * dt)
        field = Field(window, traj[s, : last[s] + 1], SPACE_TIME)
        status = STATUS_BLEW_UP if blown[s] else STATUS_COMPLETED
        out.append(SolveResult(field, float(breve_T[s]), status, norms[s, : last[s] + 1]))
    return out


def solve_stack(
    model: ModelSpec,
    counterterms,
    phi_init: Field,
    cfg: SolveConfig,
    noise: np.ndarray | None = None,
    shift: np.ndarray | None = None,
) -> list:
    """Solve a stack of samples from phi_init at t = 0, each sample's
    driving field given as its solve_window slices along the leading axis
    (one sample, undriven, when neither is given).

    With `noise`, the direct path: the noise is the additive term of the
    force.  With `shift`, the decomposed path: the remainder starts at
    phi_init - shift[:, 0] and solves the shifted force
    F[phi + shift] - f_shift, in which the noise cancels; each result holds
    the total remainder + shift and keeps the remainder in parts."""
    spec = phi_init.spec
    if phi_init.domain != SPACE_ONLY:
        raise ValidationFault("initial data must be a space_only slice")
    nu = model.noise.nu if model.noise is not None else 1.0
    force = compile_force(model, counterterms, nu, spec)
    drive = noise if shift is None else shift
    samples = 1 if drive is None else drive.shape[0]
    phi = np.broadcast_to(phi_init.data, (samples, *spec.space_shape()))
    if shift is not None:
        phi = phi - shift[:, 0]
    results = _march(force, phi, noise, shift, cfg, spec)
    if shift is not None:
        for res, sh in zip(results, shift):
            rem = res.trajectory
            res.trajectory = Field(rem.spec, rem.data + sh[: rem.data.shape[0]], SPACE_TIME)
            res.parts = {"remainder": rem}
    return results


def solve_mild(
    model: ModelSpec,
    counterterms,
    noise: Field | None,
    phi_init: Field,
    cfg: SolveConfig,
) -> SolveResult:
    """The direct path for one sample: solve_stack on the solve_window of
    `noise` (none: the undriven equation)."""
    window = None if noise is None else solve_window(noise, phi_init.spec, cfg)[None]
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


def solve_decomposed(
    model: ModelSpec,
    counterterms,
    noise: Field,
    phi_init: Field,
    cfg: SolveConfig,
) -> SolveResult:
    """The decomposed path for one sample: Phi = Phi_shift + remainder, by
    solve_stack on the solve_window of the sample's stationary shift; parts
    hold the shift and the remainder."""
    shift = build_stationary_shift(model, counterterms, noise)
    window = solve_window(shift, phi_init.spec, cfg)[None]
    res = solve_stack(model, counterterms, phi_init, cfg, shift=window)[0]
    res.parts["shift"] = shift
    return res
