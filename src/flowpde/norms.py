"""Scale-indexed Besov-type seminorm estimators.

The basic object is the family mu -> [mu]^(-alpha) ||K_mu^(*g) * f||_inf of
smoothed sup norms over a dyadic set of scales; its sup estimates a Hoelder/
Besov norm of exponent alpha, and the slope of log ||K_mu^(*g) * f|| against
log [mu] estimates the actual regularity of f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationFault
from .kernels import apply_K, fit_loglog_slope
from .lattice import SPACE_ONLY, Field, LatticeSpec, irfft_space, rfft_space


@dataclass
class ScaleNormReport:
    alpha: float
    g: int
    mu_values: np.ndarray
    raw_norms: np.ndarray  # ||K_mu^(*g) * f||_inf
    weighted: np.ndarray  # [mu]^(-alpha) * raw
    reliable: np.ndarray  # bool: mu at or above the resolvable scale
    sup: float
    slope: float

    def rows(self):
        for mu, raw, wt, ok in zip(self.mu_values, self.raw_norms, self.weighted, self.reliable):
            yield {"mu": mu, "raw_norm": raw, "weighted": wt, "reliable": bool(ok)}


def smoothed_sup(f: Field, mu: float, g: int) -> float:
    """||K_mu^(*g) * f||_inf; for a space_only slice only the spatial part
    of the kernel acts."""
    return float(np.max(np.abs(apply_K(f, mu, g=g).data)))


def scale_norm(f: Field, alpha: float, g: int, mu_values=None) -> ScaleNormReport:
    spec = f.spec
    if g < int(np.ceil(max(-alpha, 0.0))):
        raise ValidationFault(f"smoothing power g = {g} too small for alpha = {alpha}")
    if mu_values is None:
        mu_values = 2.0 ** (-np.arange(11, dtype=float))
    mu_values = np.asarray(sorted(mu_values, reverse=True), dtype=float)
    mu_min = (4.0 * spec.dx) ** spec.sigma
    raw = np.array([smoothed_sup(f, mu, g) for mu in mu_values])
    lam = mu_values ** (1.0 / spec.sigma)
    weighted = lam ** (-alpha) * raw
    reliable = mu_values >= mu_min
    if not reliable.any():
        raise ValidationFault(
            f"no scale above grid resolution: mu_min = {mu_min:.3g}"
        )
    sup = float(np.max(weighted[reliable]))
    ok = reliable & (raw > 0)
    slope = fit_loglog_slope(lam[ok], raw[ok]) if ok.sum() >= 2 else float("nan")
    return ScaleNormReport(
        alpha=alpha,
        g=g,
        mu_values=mu_values,
        raw_norms=raw,
        weighted=weighted,
        reliable=reliable,
        sup=sup,
        slope=slope,
    )


def c_gamma_multiplier(spec: LatticeSpec, gamma: float) -> np.ndarray:
    """The Fourier multiplier 1 + |k|^gamma of the C^gamma-type norm, on the
    rfft half of the modes (rfft_space's layout)."""
    if gamma <= 0:
        raise ValidationFault("gamma must be positive")
    return 1.0 + spec.k_half() ** gamma


def c_gamma_norm(phi: Field, gamma: float) -> float:
    """Hoelder-type norm ||F^-1[(1 + |k|^gamma) phi_hat]||_inf of a spatial
    slice; the blow-up monitor of the solver, which reads it from the
    slice's rfft half as this does."""
    if phi.domain != SPACE_ONLY:
        raise ValidationFault("c_gamma_norm acts on space_only slices")
    spec = phi.spec
    smoothed = irfft_space(c_gamma_multiplier(spec, gamma) * rfft_space(phi.data, spec.d), spec)
    return float(np.max(np.abs(smoothed)))
