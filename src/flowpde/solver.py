"""Mild-equation solver with exponential time differencing, the stationary
shift decomposition, window patching, and blow-up detection.

The mild macroscopic equation Phi = G * (1_[0,inf) F_nu[Phi] + delta_0 x phi)
is advanced per Fourier mode with the exact linear factor exp(-dt |k|^sigma)
and phi-function weights on the force (ETD1 / ETD2RK).  The initial pairing
delta_0 x phi enters exactly as the semigroup image of phi, never as a grid
delta.  The rough part of the dynamics can be split off as the stationary
shift Phi_shift = (G - G_1) * f_shift built from the pathwise hierarchy; the
remainder solves the shifted equation with force
F_hat[phi] = F_nu[phi + Phi_shift] - f_shift, in which the noise cancels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFault, ValidationFault
from .kernels import DEFAULT_EPS
from .lattice import SPACE_ONLY, SPACE_TIME, Field, LatticeSpec
from .model import ModelSpec, compile_force
from .model import evaluate_force  # noqa: F401  looked up here by perfbench/tracing.py
from .norms import c_gamma_norm

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
        if self.blow_up_radius <= 1.0:
            raise ValidationFault("blow-up radius must exceed 1")


@dataclass
class SolveResult:
    trajectory: Field
    breve_T: float
    status: str
    slice_norms: np.ndarray
    parts: dict = field(default_factory=dict)


def _phi1(z: np.ndarray) -> np.ndarray:
    """phi_1(z) = (e^z - 1)/z, stable near 0."""
    out = np.ones_like(z)
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


def _slice_index(noise: Field, t: float) -> int:
    j = int(round((t - noise.spec.t_min) / noise.spec.dt))
    if j < 0 or j >= noise.spec.nt:
        raise ValidationFault(f"time {t} outside the noise window")
    return j


def solve_mild(
    model: ModelSpec,
    counterterms,
    noise: Field | None,
    phi_init: Field,
    cfg: SolveConfig,
    shift: Field | None = None,
    t_start: float = 0.0,
) -> SolveResult:
    """Advance the mild equation from phi_init at t_start over the horizon.

    With `shift` given, the shifted force F[phi + shift] - force-of-shift is
    used: the caller passes noise = None and the shift trajectory absorbs
    the rough driving (the noise term of the bare force cancels against the
    shift's defining equation).
    """
    spec = phi_init.spec
    if phi_init.domain != SPACE_ONLY:
        raise ValidationFault("initial data must be a space_only slice")
    nu = model.noise.nu if model.noise is not None else 1.0
    dt = spec.dt
    n_steps = int(round(min(cfg.max_horizon, spec.t_max - t_start) / dt))
    gamma = cfg.gamma if cfg.gamma is not None else spec.sigma - DEFAULT_EPS
    lin = -dt * spec.k_norm() ** spec.sigma
    e_lin = np.exp(lin)
    w1 = dt * _phi1(lin)
    w2 = dt * _phi2(lin)
    mask = _dealias_mask(spec) if cfg.dealias else None
    axes = tuple(range(spec.d))

    compiled = compile_force(model, counterterms, nu, spec)

    def force(phi_data: np.ndarray, t: float) -> np.ndarray:
        if shift is not None:
            return compiled(phi_data + shift.data[_slice_index(shift, t)])
        if noise is not None:
            return compiled(phi_data, noise.data[_slice_index(noise, t)])
        return compiled(phi_data)

    def step(phi_hat: np.ndarray, t: float) -> np.ndarray:
        phi_data = np.fft.ifftn(phi_hat, axes=axes).real
        f0 = np.fft.fftn(force(phi_data, t), axes=axes)
        if mask is not None:
            f0 = f0 * mask
        a_hat = e_lin * phi_hat + w1 * f0
        if cfg.scheme == "etd1":
            return a_hat
        a_data = np.fft.ifftn(a_hat, axes=axes).real
        f1 = np.fft.fftn(force(a_data, t + dt), axes=axes)
        if mask is not None:
            f1 = f1 * mask
        return a_hat + w2 * (f1 - f0)

    traj = np.empty((n_steps + 1, *spec.space_shape()))
    norms = np.full(n_steps + 1, np.nan)
    traj[0] = phi_init.data
    norms[0] = c_gamma_norm(phi_init, gamma)
    phi_hat = np.fft.fftn(phi_init.data, axes=axes).astype(complex)
    status = STATUS_COMPLETED
    breve_T = t_start + n_steps * dt
    last = n_steps
    for j in range(1, n_steps + 1):
        t = t_start + (j - 1) * dt
        phi_hat = step(phi_hat, t)
        data = np.fft.ifftn(phi_hat, axes=axes).real
        if not np.all(np.isfinite(data)):
            raise NumericalFault(
                f"numerical overflow before threshold at t = {t + dt:.6g}"
            )
        traj[j] = data
        norms[j] = c_gamma_norm(Field(spec, data, SPACE_ONLY), gamma)
        if norms[j] >= cfg.blow_up_radius:
            status = STATUS_BLEW_UP
            breve_T = t_start + j * dt
            last = j
            break
    window = spec.with_window(t_start, t_start + last * dt)
    out = Field(window, traj[: last + 1], SPACE_TIME)
    return SolveResult(out, breve_T, status, norms[: last + 1])


def build_stationary_shift(
    model: ModelSpec,
    counterterms,
    noise: Field,
    order: int | None = None,
) -> Field:
    """Phi_shift = (G - G_1) * f_shift with f_shift = sum_(i <= order)
    lambda^i f^i from the pathwise hierarchy; order defaults to the model's
    stationary truncation order."""
    from .flow import expand_pathwise, stationary_sum

    spec = noise.spec
    if spec.t_max - spec.t_min < 2.0:
        raise ValidationFault(
            "noise window too short for the fluctuation kernel support (needs >= 2)"
        )
    order = model.i_rhd if order is None else order
    expansion = expand_pathwise(model, counterterms, noise, order)
    return stationary_sum(expansion, model.lam, order, which="psi")


def solve_with_patching(
    model: ModelSpec,
    counterterms,
    noise: Field | None,
    phi_init: Field,
    cfg: SolveConfig,
    shift: Field | None = None,
    t_start: float = 0.0,
) -> SolveResult:
    """Solve over consecutive local windows of length t_local, re-anchoring
    the initial data at each seam; identical dynamics to a single window for
    an explicit integrator, retained as the structural realization of the
    local-solve-and-patch argument."""
    spec = phi_init.spec
    dt = spec.dt
    horizon = min(cfg.max_horizon, spec.t_max - t_start)
    steps_total = int(round(horizon / dt))
    steps_per_win = max(int(round(cfg.t_local / dt)), 1)
    pieces = []
    norms = []
    t = t_start
    current = phi_init
    done = 0
    status = STATUS_COMPLETED
    breve_T = t_start + horizon
    while done < steps_total:
        n_here = min(steps_per_win, steps_total - done)
        sub_cfg = SolveConfig(
            scheme=cfg.scheme,
            t_local=cfg.t_local,
            blow_up_radius=cfg.blow_up_radius,
            max_horizon=n_here * dt,
            dealias=cfg.dealias,
            gamma=cfg.gamma,
        )
        res = solve_mild(model, counterterms, noise, current, sub_cfg, shift=shift, t_start=t)
        start = 1 if pieces else 0
        pieces.append(res.trajectory.data[start:])
        norms.append(res.slice_norms[start:])
        seam = res.trajectory.data[-1]
        steps_done = res.trajectory.data.shape[0] - 1
        done += steps_done
        t += steps_done * dt
        current = Field(spec, seam, SPACE_ONLY)
        if res.status == STATUS_BLEW_UP:
            status = STATUS_BLEW_UP
            breve_T = res.breve_T
            break
    else:
        breve_T = t
    data = np.concatenate(pieces, axis=0) if len(pieces) > 1 else pieces[0]
    window = spec.with_window(t_start, t_start + (data.shape[0] - 1) * dt)
    return SolveResult(
        Field(window, data, SPACE_TIME),
        breve_T,
        status,
        np.concatenate(norms),
    )


def solve_decomposed(
    model: ModelSpec,
    counterterms,
    noise: Field,
    phi_init: Field,
    cfg: SolveConfig,
    shift_order: int | None = None,
) -> SolveResult:
    """Full solution via the trick: Phi = Phi_shift + Phi_remainder, with
    the remainder solving the shifted (noise-free) equation from phi_init
    minus the shift's initial slice."""
    spec = phi_init.spec
    shift = build_stationary_shift(model, counterterms, noise, order=shift_order)
    j0 = _slice_index(shift, 0.0)
    rem_init = Field(spec, phi_init.data - shift.data[j0], SPACE_ONLY)
    res = solve_with_patching(model, counterterms, None, rem_init, cfg, shift=shift)
    nt_out = res.trajectory.data.shape[0]
    total = res.trajectory.data + shift.data[j0 : j0 + nt_out]
    full = Field(res.trajectory.spec, total, SPACE_TIME)
    return SolveResult(
        full,
        res.breve_T,
        res.status,
        res.slice_norms,
        parts={"shift": shift, "remainder": res.trajectory},
    )
