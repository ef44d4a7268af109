"""Mild-equation solver: exponential time differencing, the split of the
solution into driver and remainder, window patching and blow-up detection.

The mild macroscopic equation Phi = G * (1_[0,inf) F_nu[Phi] + delta_0 x phi)
is advanced per Fourier mode with the exact linear factor exp(-dt |k|^sigma)
and phi-function weights on the force (ETD1 / ETD2RK), all on the rfft half
of the modes, blow-up monitor included.  The initial pairing delta_0 x phi
enters exactly as the semigroup image of phi, never as a grid delta.

solve_stack is the one solve: it compiles the force of each group of rows,
runs one stepping loop for a stack of samples along a leading axis, whose
row groups share the force's terms but not its coefficients (each sample
matches its own solve bit for bit), and owns the one solve rule, the
Da Prato-Debussche split Phi = D + R.  All of the noise sits in the driver
D = S - e^(-t|k|^sigma) S(0), zero at t = 0, with S = G * (1_[0,inf) Xi)
by the trapezoid rule of kernels.convolve.  The remainder R starts at phi
and solves Q R = N[R + D], with N = F_nu - Xi_nu the polynomial part of the
force, so the dealias mask only sees N and the blow-up monitor measures R.
solve_mild and solve_with_patching are its one-sample callers.

No solve reads the stationary shift Phi_shift = (G - G_1) * f_shift of the
effective force at scale 1 (build_stationary_shift, flow.expand_pathwise);
that field serves the analysis.  Since Q (G - G_1) = delta - chi'.G, a
drive by it solves this equation only once G * (1_[0,inf) c),
c = (chi'.G) * f_shift - (f_shift - Xi), is added back, and that sum is the
direct driver plus a free decay.

The solver never transforms white noise: solve_stack reads each sample's
driving field on its window_slices as the rfft half spectrum over space,
the representation its stepping loop works in, and never writes it.  A
field's window_spectrum gives it; the harness's coupled cells hand over the
half spectra of the noise module's spectral drivers as they come, never in
real space.  The stepping loop steps D's half spectrum beside R's by the
trapezoid recursion, one slice a step, and makes only their sum real, so a
stack holds no real drive beside its trajectory.

The stepping loop keeps one buffer discipline: every array a step writes is
allocated once per solve with one row per sample: R + D's half spectrum
above R's c_gamma weighting (one inverse transform gives both real slices),
R's half spectrum, D's recursion, the two force spectra, the stage-2 slice,
the force and its work array.  The transforms and the force write into
these, so a step allocates nothing.  When a sample leaves at the blow-up
radius, the live rows move to the front, the views are cut to them and the
noise rows are cut to the live samples.  The 2/3 dealias mask is folded
into the phi-function weights once: it is 0 or 1, so w (mask f) and
(w mask) f agree bit for bit on finite f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFault, ValidationFault
from .kernels import DEFAULT_EPS
from .lattice import SPACE_ONLY, SPACE_TIME, Field, LatticeSpec, check_whole_steps, irfft_space, rfft_space
from .model import ModelSpec, compile_force, stack_forces
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
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValidationFault(f"gamma must be finite and positive, got {self.gamma}")


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
    """2/3-rule mask on the rfft half of the modes."""
    return np.all(np.abs(spec.freq_grids()) <= spec.n / 3.0, axis=0)[..., : spec.n // 2 + 1]


def _slice_index(fs: LatticeSpec, t: float) -> int:
    j = int(round((t - fs.t_min) / fs.dt))
    if j < 0 or j >= fs.nt:
        raise ValidationFault(f"time {t} outside the noise window")
    return j


def _n_steps(spec: LatticeSpec, cfg: SolveConfig) -> int:
    """The steps of a solve from t = 0 to its horizon min(max_horizon,
    t_max), which must be a whole number of them."""
    horizon = min(cfg.max_horizon, spec.t_max)
    check_whole_steps(horizon, spec.dt, f"the solve horizon min(max_horizon, t_max) = {horizon:g}")
    return int(round(horizon / spec.dt))


def window_slices(fs: LatticeSpec, spec: LatticeSpec, cfg: SolveConfig) -> slice:
    """The time slices of a noise field on `fs` that a solve on
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


def _march(force, phi, noise, cfg: SolveConfig, spec: LatticeSpec) -> list:
    """The stepping loop, for a stack of samples along the leading axis.

    `phi` holds the initial slices of R and `noise` each sample's driving
    field x on its solve_window slices as a half spectrum; the force is
    N[R + D].  The state is R's rfft half; its linear part is exact per
    mode, and the force gets ETD1 / ETD2RK phi-function weights.  D's half
    spectrum is stepped beside it by the trapezoid recursion with the free
    decay folded into its start, B_0 = x_0 / 2,
    B_j = x_j + e^(-dt|k|^sigma) B_(j-1) and D_j = dt (B_j - x_j / 2):
    this is S - e^(-t|k|^sigma) S(0), and D_0 = 0.  The stage-2 slice is
    the inverse transform of the predicted R + D, and one inverse transform
    of the pair (R + D, (1 + |k|^gamma) R) gives the trajectory slice, the
    next force's argument and R's c_gamma monitor.  At the end of each
    local window of t_local the state restarts from R's real slice (one
    inverse and one forward transform), as a fresh solve from that slice
    would.  A sample whose monitor reaches the blow-up radius stops there
    and leaves the stack with its force scalars and noise rows; a
    non-finite slice R + D in the stack faults (D is finite where the
    noise is, so R + D is finite exactly when R is).  Returns one
    SolveResult per sample: R + D and the norms of R.

    A step allocates nothing: the transforms, the force and every update
    write into buffers of one row per sample held for the whole solve (the
    module docstring's buffer discipline), cut by views to the live rows.
    The dealias mask is folded into w1 and w2 before the loop, so the
    force spectra are never masked themselves: the mask is 0 or 1, so
    w (mask f) and (w mask) f agree bit for bit on finite f.
    """
    dt = spec.dt
    n_steps = _n_steps(spec, cfg)
    per_window = max(int(round(cfg.t_local / dt)), 1)
    gamma = cfg.gamma if cfg.gamma is not None else spec.sigma - DEFAULT_EPS
    norm_mult = c_gamma_multiplier(spec, gamma)
    lin = -dt * spec.k_half() ** spec.sigma
    e_lin = np.exp(lin)
    w1 = dt * _phi1(lin)
    w2 = dt * _phi2(lin)
    if cfg.dealias:
        mask = _dealias_mask(spec)
        w1, w2 = w1 * mask, w2 * mask
    d = spec.d
    space = tuple(range(-d, 0))

    samples = phi.shape[0]
    shape = spec.space_shape()
    traj = np.empty((samples, n_steps + 1, *shape))
    norms = np.full((samples, n_steps + 1), np.nan)
    last = np.full(samples, n_steps)
    breve_T = np.empty(samples)
    blown = np.zeros(samples, dtype=bool)
    live = np.arange(samples)
    t_win, j_win = 0.0, 0
    # slots: R + D's half spectrum, R's c_gamma weighting, R's half
    # spectrum, D's recursion B, the two force spectra
    spectra = np.empty((6, samples, *lin.shape), dtype=complex)
    # slots: R + D, R's weighting, their moduli, the stage-2 slice, the
    # force, the force's work array
    reals = np.empty((7, samples, *shape))
    sups = np.empty(samples)
    stops = np.empty(samples, dtype=bool)
    k = samples
    total_hat, weighted, state, acc, f0, f1 = spectra
    total, _, _, _, stage, forced, work = reals
    rfft_space(phi, d, out=state)
    np.multiply(0.5, noise[:, 0], out=acc)
    np.copyto(total_hat, state)  # D_0 = 0
    np.multiply(norm_mult, state, out=weighted)
    irfft_space(spectra[:2], spec, out=reals[:2])
    np.max(np.abs(reals[1], out=reals[3]), axis=space, out=norms[:, 0])
    traj[:, 0] = phi
    for j in range(1, n_steps + 1):
        at = slice(None) if k == samples else live  # plain slices while no sample has left
        x = noise[:, j]
        rfft_space(force(total, out=forced, work=work), d, out=f0)
        np.multiply(e_lin, state, out=state)
        np.add(state, np.multiply(w1, f0, out=f1), out=state)
        np.add(x, np.multiply(e_lin, acc, out=acc), out=acc)
        drive = np.subtract(acc, np.multiply(0.5, x, out=total_hat), out=total_hat)
        np.multiply(dt, drive, out=drive)
        if cfg.scheme == "etd_rk2":
            irfft_space(np.add(state, drive, out=f1), spec, out=stage)
            rfft_space(force(stage, out=forced, work=work), d, out=f1)
            np.add(state, np.multiply(w2, np.subtract(f1, f0, out=f1), out=f1), out=state)
        np.add(state, drive, out=total_hat)
        np.multiply(norm_mult, state, out=weighted)
        irfft_space(spectra[:2, :k], spec, out=reals[:2, :k])
        np.abs(reals[:2, :k], out=reals[2:4, :k])
        if not math.isfinite(reals[2, :k].max()):
            raise NumericalFault(
                f"numerical overflow before threshold at t = {t_win + (j - j_win) * dt:.6g}"
            )
        sup = np.max(reals[3, :k], axis=space, out=sups[:k])
        traj[at, j] = total
        norms[at, j] = sup
        stop = np.greater_equal(sup, cfg.blow_up_radius, out=stops[:k])
        if stop.any():
            last[live[stop]] = j
            breve_T[live[stop]] = t_win + (j - j_win) * dt
            blown[live[stop]] = True
            keep = ~stop
            live = live[keep]
            force = force.take(keep)
            noise = noise[keep]
            rows = state[keep], acc[keep], total[keep]
            k = live.size
            if not k:
                break
            total_hat, weighted, state, acc, f0, f1 = spectra[:, :k]
            total, _, _, _, stage, forced, work = reals[:, :k]
            state[...], acc[...], total[...] = rows
        if j % per_window == 0 and j < n_steps:
            t_win, j_win = t_win + per_window * dt, j
            rfft_space(irfft_space(state, spec, out=stage), d, out=state)
    breve_T[live] = t_win + (n_steps - j_win) * dt
    out = []
    for s in range(samples):
        window = spec.with_window(0.0, last[s] * dt)
        field = Field(window, traj[s, : last[s] + 1], SPACE_TIME)
        status = STATUS_BLEW_UP if blown[s] else STATUS_COMPLETED
        out.append(SolveResult(field, float(breve_T[s]), status, norms[s, : last[s] + 1]))
    return out


def solve_stack(forces, phi_init: Field, cfg: SolveConfig, noise=None) -> list:
    """Solve a stack of samples from phi_init at t = 0, each sample's
    driving field given along the leading axis as the rfft_space half
    spectrum of its solve_window slices, (samples, slices, n, ..., n // 2 + 1)
    (one sample with D = 0 when none is given).  `forces` holds one
    (model, counterterms) per group of rows: the samples split into
    len(forces) equal groups in that order, and the groups' forces must
    share their terms (model.stack_forces).  The spectra given are read,
    never written.

    The one rule of the module docstring, with S = G * (1_[0,inf) noise):
    R starts at phi_init and solves N[R + D] with the driver
    D = S - e^(-t|k|^sigma) S[:, 0], zero at t = 0, which the stepping loop
    steps beside R in one pass over the noise; each result holds the total
    R + D, and its slice_norms are those of R."""
    spec = phi_init.spec
    if phi_init.domain != SPACE_ONLY:
        raise ValidationFault("initial data must be a space_only slice")
    compiled = [
        compile_force(model, ct, model.noise.nu if model.noise is not None else 1.0, spec)
        for model, ct in forces
    ]
    if noise is None:
        noise = np.zeros((1, _n_steps(spec, cfg) + 1, *spec.k_half().shape), dtype=complex)
    samples = noise.shape[0]
    if samples % len(compiled):
        raise ValidationFault(f"{samples} samples do not split into {len(compiled)} equal groups")
    force = stack_forces(compiled, samples // len(compiled), spec.d)
    phi = np.broadcast_to(phi_init.data, (samples, *spec.space_shape()))
    return _march(force, phi, noise, cfg, spec)


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
    return solve_stack([(model, counterterms)], phi_init, cfg, noise=window)[0]


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
    truncation order i_rhd: a field of the analysis that no solve reads
    (module docstring)."""
    from .flow import expand_pathwise, stationary_sum

    expansion = expand_pathwise(model, counterterms, noise, model.i_rhd)
    return stationary_sum(expansion, model.lam, model.i_rhd)
