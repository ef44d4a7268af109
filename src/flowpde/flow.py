"""Flow-equation engine: effective force coefficients, Taylor
reconstruction maps, the expectation flow, and the renormalization engine
producing counterterms.

Scale decomposition.  The heat propagator splits as G = G_mu + Ghat_mu with
G_mu the large-time part (supported in t > mu) and Ghat_mu = G - G_mu the
fluctuation part (supported in t < 2 mu).  The effective force at scale mu
is the unique lambda-graded solution of

    F_mu[phi] = F[phi + Ghat_mu * F_mu[phi]],

where F is the bare force.  Its m = 0 coefficients at mu = 1, evaluated on a
noise sample, are the pathwise fields f^i driving the stationary expansion;
its expectations at the relevant indices are pinned at mu = 1 by the
renormalization scheme and transported to mu = 0 by the flow

    counterterm f^(i,m,a) = anchor - integral_0^1 d/dmu <f^(i,m,a)_mu> dmu.

Expectation flow realization.  For order i = 1 and Gaussian noise the flow
closes on the scalar tadpole curve

    C(mu) = < (Ghat_mu * Xi)(x)^2 >,     dC/dmu = -2 D(mu),
    D(mu) = < (Ghat_mu * Xi)(x) (Gdot_mu * Xi)(x) >,

both evaluated as exact discrete Wick sums over lattice modes with the same
quadrature weights as the convolution operator, so the flow integral and the
direct Wick oracle agree up to mu-quadrature error only.  Contracting k
pairs of a degree-m monomial into a degree m - 2k coefficient carries the
pairing count m! / ((m - 2k)! k! 2^k).  Order i = 2 is provided for the
cubic Z2 class through the closed sunset form (see flow_expected).

Node spectra.  The time spectra of Ghat_mu and Gdot_mu depend only on the
lattice, mu, the padded length and |k|^sigma: a KernelSpectra builds them on
the distinct |k|^sigma, once per node and length for all cells of a
flow_stack, and each cell multiplies in its own taps.  Each column is
transformed alone and expanded to every mode before the sum over modes, so C
and D are bit-identical to a per-cell, per-mode layout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationFault
from .kernels import chi, chi_prime, convolve, fluctuation_kernel
from .lattice import SPACE_TIME, TORUS_LEN, Field, LatticeSpec
from .model import ModelSpec, RenormScheme, coefficient_value, compile_force, relevant_filtered
from .noise import NoiseModel, _spatial_multiplier, _temporal_taps

MAX_PATHWISE_ORDER = 8


# -- pathwise expansion ----------------------------------------------------


def _compositions(total: int, parts: int):
    """Ordered tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def effective_force_series(
    model: ModelSpec,
    counterterms,
    noise: Field,
    phi_series: dict | None,
    i_max: int,
    mu: float = 1.0,
) -> dict:
    """Order-by-order solution of F_mu[phi] = F[phi + Ghat_mu * F_mu[phi]]
    for a lambda-graded external field phi = sum_i lambda^i phi_series[i].

    Returns {i: order-i coefficient of F_mu[phi] as a Field}.  With
    phi_series = None this yields the m = 0 effective force coefficients
    f^i evaluated on the noise sample (the closed recursion: each order uses
    only lower orders, so no mu-integration is needed).
    """
    if i_max > MAX_PATHWISE_ORDER:
        est = model.m_flat**i_max
        raise ValidationFault(
            f"pathwise order {i_max} exceeds budget {MAX_PATHWISE_ORDER} "
            f"(~{est} tree contractions per order)"
        )
    spec = noise.spec
    nu = model.noise.nu if model.noise is not None else 1.0
    force = compile_force(model, counterterms, nu, spec)
    kernel = fluctuation_kernel(spec, mu)
    f_orders = {0: noise.data}
    u_orders = {}  # u^(k) = order-k part of phi + Ghat_mu * F_mu[phi]

    def u_of(k: int) -> np.ndarray:
        if k not in u_orders:
            conv = convolve(kernel, Field(spec, f_orders[k], SPACE_TIME)).data
            if phi_series is not None and k in phi_series:
                conv = conv + phi_series[k].data
            u_orders[k] = conv
        return u_orders[k]

    for i in range(1, i_max + 1):
        acc = np.zeros_like(noise.data)
        for (j, m, a), value in force.table.items():
            if j > i or value == 0.0:
                continue
            sign = (-1.0) ** sum(sum(aq) for aq in a)
            for parts in _compositions(i - j, m):
                prod = force.monomial([u_of(iq) for iq in parts], a)
                acc += sign * value * prod
        f_orders[i] = acc
    return {i: Field(spec, data, SPACE_TIME) for i, data in f_orders.items()}


def expand_pathwise(
    model: ModelSpec,
    counterterms,
    noise: Field,
    i_max: int,
) -> dict:
    """Pathwise stationary hierarchy at mu = 1: fields f^i and their
    smoothed versions Psi^i = (G - G_1) * f^i."""
    f = effective_force_series(model, counterterms, noise, None, i_max, mu=1.0)
    kernel = fluctuation_kernel(noise.spec, 1.0)
    psi = {i: convolve(kernel, fi) for i, fi in f.items()}
    return {"f": f, "psi": psi}


def stationary_sum(expansion: dict, lam: float, i_max: int) -> Field:
    """sum_(i <= i_max) lambda^i Psi^i of a pathwise expansion."""
    fields = expansion["psi"]
    spec = fields[0].spec
    acc = np.zeros_like(fields[0].data)
    for i in range(i_max + 1):
        acc += lam**i * fields[i].data
    return Field(spec, acc, SPACE_TIME)


# -- discrete Wick sums ----------------------------------------------------


class KernelSpectra:
    """Time spectra of G - G_mu and dG_mu on one lattice, without taps, on
    the distinct |k|^sigma (`inverse` maps each mode to its column).  The
    heat table is built once; the last mu's spectra are kept per n_pad."""

    def __init__(self, spec: LatticeSpec):
        self.spec = spec
        k_sigma = spec.k_norm().ravel() ** spec.sigma
        self.k_sigma, self.inverse = np.unique(k_sigma, return_inverse=True)
        self._t = np.zeros(0)
        self._mu, self._memo = None, {}

    def _rfft(self, mult: np.ndarray, lo: int, n_pad: int) -> np.ndarray:
        """Time rfft of quadrature-weighted slices placed from slice lo."""
        arr = np.zeros((lo + len(mult), mult.shape[1]))
        arr[lo:] = self.spec.dt * mult
        if lo == 0:
            arr[0] *= 0.5
        return np.fft.rfft(arr, n=n_pad, axis=0)

    def at(self, mu: float, n_pad: int, dot: bool) -> list:
        """[fluctuation spectrum] or, with `dot`, [fluctuation, dot kernel
        from slice floor(mu / dt)] at mu, from rows j <= ceil(2 mu / dt) of
        one heat table e^(-j dt |k|^sigma) built for max(1, mu)."""
        if mu != self._mu:
            self._mu, self._memo = mu, {}
        if (n_pad, dot) not in self._memo:
            hi = int(np.ceil(2.0 * mu / self.spec.dt))
            if hi >= len(self._t):
                self._t = self.spec.dt * np.arange(max(hi, int(np.ceil(2.0 / self.spec.dt))) + 1)
                self._heat = np.exp(-np.outer(self._t, self.k_sigma))
            t, heat = self._t[: hi + 1], self._heat[: hi + 1]
            spectra = [self._rfft((1.0 - chi(t / mu))[:, None] * heat, 0, n_pad)]
            if dot:
                lo = int(np.floor(mu / self.spec.dt))
                w = -(t[lo:] / mu**2) * chi_prime(t[lo:] / mu)
                spectra.append(self._rfft(w[:, None] * heat[lo:], lo, n_pad))
            self._memo[(n_pad, dot)] = spectra
        return self._memo[(n_pad, dot)]


class WickCalculator:
    """Exact second-moment computations for mollified white noise on the
    lattice, with the same discrete conventions as the sampler and the
    convolution operator: temporal taps of the mollifier, spatial mollifier
    multiplier, white-noise cell variance 1/(dt dx^d), and the half-weight
    at a kernel's t = 0 tap.  Kernel spectra come from `kernels`, its own or
    a flow_stack's (module docstring); the taps' rfft is built per n_pad."""

    def __init__(self, spec: LatticeSpec, model: NoiseModel, kernels: KernelSpectra | None = None):
        if model.kind != "mollified_white":
            raise ValidationFault("Wick sums implemented for mollified_white noise")
        self.spec = spec
        self.model = model
        self.kernels = kernels if kernels is not None else KernelSpectra(spec)
        self.mhat2 = np.abs(_spatial_multiplier(model, spec)).ravel() ** 2
        self.taps = _temporal_taps(model, spec)
        self.k_sigma = spec.k_norm().ravel() ** spec.sigma
        self.prefactor = spec.dt / (spec.dx**spec.d * spec.n**spec.d)
        self._taps_hat = {}

    def _smoothed(self, mu: float, dot: bool, n_pad: int | None = None) -> tuple:
        """(spectra at mu times the taps' rfft, n_pad); n_pad defaults to fit both kernels."""
        if n_pad is None:  # both kernels end at slice ceil(2 mu / dt)
            n_pad = 1 << int(np.ceil(np.log2(np.ceil(2 * mu / self.spec.dt) + len(self.taps) + 2)))
        if n_pad not in self._taps_hat:
            self._taps_hat[n_pad] = np.fft.rfft(self.taps, n=n_pad)[:, None]
        return [S * self._taps_hat[n_pad] for S in self.kernels.at(mu, n_pad, dot)], n_pad

    def _parseval(self, H1: np.ndarray, H2: np.ndarray, n_pad: int) -> float:
        """< (K1 * Xi)(x) (K2 * Xi)(x) > from the two kernels' tap-smoothed
        spectra.  Uses the identity sum_(j,j') g1_j g2_j' A(j - j') =
        sum_t (g1 conv taps)(g2 conv taps), evaluated by Parseval for rfft:
        sum_t h1 h2 = (H[0] + 2 sum_mid + edge) / n_pad."""
        prod = (H1.conj() * H2).real
        val = 2.0 * prod.sum(axis=0) - prod[0]
        if n_pad % 2 == 0:
            val -= prod[-1]
        val /= n_pad
        return float(self.prefactor * np.sum(self.mhat2 * val[self.kernels.inverse]))

    def tadpole(self, mu: float) -> float:
        """C(mu) = < ((G - G_mu) * Xi)(x)^2 >."""
        (H,), n_pad = self._smoothed(mu, dot=False)
        return self._parseval(H, H, n_pad)

    def tadpole_derivative_half(self, mu: float) -> float:
        """D(mu) = < ((G - G_mu) * Xi) ((dG_mu) * Xi) > = -C'(mu)/2."""
        return self.flow_node(mu)[1]

    def flow_node(self, mu: float) -> tuple:
        """(C(mu), D(mu)) from one spectrum of each kernel: the values of
        tadpole and tadpole_derivative_half at a node of the flow."""
        (H, H_dot), n_pad = self._smoothed(mu, dot=True)
        return self._parseval(H, H, n_pad), self._parseval(H, H_dot, n_pad)

    def covariance_kernel(self, n_lags: int) -> np.ndarray:
        """P(t_lag, x) = < (Ghat_1 * Xi)(0) (Ghat_1 * Xi)(t_lag, x) > for
        t_lag = 0..n_lags-1, as real-space slices (used by the sunset
        integrals)."""
        hi = int(np.ceil(2.0 / self.spec.dt))
        n_pad = 1 << int(np.ceil(np.log2(2 * (hi + 1 + len(self.taps) + n_lags))))
        (H,), _ = self._smoothed(1.0, False, n_pad)
        auto = np.fft.irfft(np.abs(H) ** 2, n=n_pad, axis=0)
        # np.take keeps P in C order, the order the sunset integrals sum in
        auto = np.take(auto[:n_lags], self.kernels.inverse, axis=1)
        out_hat = auto * (self.prefactor * self.mhat2[None])
        # back to real space per time lag
        shape = (n_lags, *self.spec.space_shape())
        field_hat = (out_hat * self.spec.n**self.spec.d).reshape(shape).astype(complex)
        return np.fft.ifftn(field_hat, axes=tuple(range(1, self.spec.d + 1))).real


def pairing_count(m: int, k: int) -> int:
    """Number of ways to Wick-contract k pairs out of m slots:
    m! / ((m - 2k)! k! 2^k)."""
    return math.factorial(m) // (math.factorial(m - 2 * k) * math.factorial(k) * 2**k)


# -- expectation flow and renormalization ---------------------------------


@dataclass
class EffectiveCoefficients:
    expected: dict = field(default_factory=dict)  # (i,m,a) -> (mu_nodes, values)


@dataclass
class CounterTermResult:
    nu: float
    entries: dict  # (i, m, a) -> value
    provenance: dict  # (i, m, a) -> "flow_integrated" | "oracle"
    diagnostics: dict

    def as_dict(self) -> dict:
        return dict(self.entries)


def _octave_nodes(j_levels: int, nodes_per_octave: int):
    """Gauss-Legendre nodes and weights on each octave (2^-j-1, 2^-j],
    finest octave extended down to 0."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_octave)
    nodes, weights = [], []
    for j in range(j_levels):
        hi = 2.0**-j
        lo = 2.0 ** -(j + 1)
        nodes.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
        weights.append(0.5 * (hi - lo) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def flow_expected(
    model: ModelSpec,
    spec: LatticeSpec,
    nu: float,
    scheme: RenormScheme,
    j_levels: int = 10,
    nodes_per_octave: int = 16,
    i_max: int = 2,
) -> tuple:
    """Integrate the expectation flow on a geometric mu-grid and return the
    stored curves plus the counterterms for every relevant index.

    Supported index classes at this truncation:
      (1, m0, 0): first-order flow, closed on the tadpole curve C(mu); the
          source terms are the declared monomials (1, m, 0) with m > m0 and
          m - m0 even, each contracted (m - m0)/2 times.
      (2, 1, 0): closed sunset form for the cubic-plus-linear Z2 class.
    Anything else faults: the stored-kernel truncation (m <= 2 translation
    invariant) does not determine it.  The one-cell caller of flow_stack.
    """
    return flow_stack(spec, [(model, nu, scheme)], j_levels, nodes_per_octave, i_max)[0]


def flow_stack(spec: LatticeSpec, cells, j_levels=10, nodes_per_octave=16, i_max=2) -> list:
    """flow_expected's (coefficients, counterterms) for each (model, nu,
    scheme) cell on one lattice, every cell checked before any flow runs.
    The mu-node loop is outermost and all cells share one KernelSpectra."""
    for name, value in (("j_levels", j_levels), ("nodes_per_octave", nodes_per_octave)):
        if value < 1:
            raise ValidationFault(f"flow {name} must be at least 1, got {value}")
    kernels = KernelSpectra(spec)
    checked, wicks = [], []
    for model, nu, scheme in cells:
        noise_model = (model.noise or NoiseModel("mollified_white", 1.0, 0)).with_nu(nu)
        wicks.append(WickCalculator(spec, noise_model, kernels))
        anchors = scheme.as_dict()
        relevant = relevant_filtered(model)
        for key in anchors:
            if key not in relevant:
                raise ValidationFault(f"anchor for non-relevant index {key}")
        over = [key for key in relevant if key[0] > i_max]
        if over:
            raise ValidationFault(
                f"truncation order {i_max} cannot determine relevant indices {over}"
            )
        checked.append((model, nu, anchors, relevant))

    nodes, weights = _octave_nodes(j_levels, nodes_per_octave)
    quadrature = (nodes, weights, j_levels, nodes_per_octave)
    C_D = [[wick.flow_node(mu) for wick in wicks] for mu in nodes]
    ends = [[wick.tadpole(mu) for wick in wicks] for mu in (2.0**-j_levels, 1.0)]
    return [
        _flow_counterterms(spec, *cell, wick, quadrature, np.array(c_d).T, C_min, C_one)
        for cell, wick, c_d, C_min, C_one in zip(checked, wicks, zip(*C_D), *ends)
    ]


def _flow_counterterms(spec, model, nu, anchors, relevant, wick, quadrature, C_D, C_min, C_one):
    """One cell's curves and counterterms from C, D at the nodes (rows of
    C_D), C(mu_min) and C(1)."""
    nodes, weights, j_levels, nodes_per_octave = quadrature
    C_nodes, D_nodes = C_D

    # bare (mu = 0) values of the declared monomials
    def bare(i, m):
        for mo in model.monomials:
            if mo.i == i and mo.m == m and mo.degree() == 0:
                return coefficient_value(model, mo, nu)
        return 0.0

    entries, provenance, curves = {}, {}, {}
    arities = sorted({mo.m for mo in model.monomials if mo.i == 1 and mo.degree() == 0})
    quad_errors, sunset_diag = {}, {}

    for key in relevant:
        i, m, a = key
        if i == 1 and all(sum(aq) == 0 for aq in a):
            # contraction sources: monomials (1, mm, 0) feeding (1, m, 0)
            # by contracting k = (mm - m)/2 Wick pairs
            sources = [
                (mm, bare(1, mm), (mm - m) // 2)
                for mm in arities
                if mm > m and (mm - m) % 2 == 0
            ]
            anchor = anchors.get(key, 0.0)
            # flow integral of d<f>/dmu = sum_mm c kappa * d/dmu C(mu)^k,
            # with dC/dmu = -2 D(mu); the cell [0, mu_min] contributes its
            # exact boundary increment C(mu_min)^k (C is continuous at 0)
            flow_int = 0.0
            for mm, c_m, k in sources:
                kap = pairing_count(mm, k)
                dint = np.sum(weights * k * C_nodes ** (k - 1) * (-2.0) * D_nodes)
                flow_int += c_m * kap * (dint + C_min**k)
            entries[key] = anchor - flow_int
            provenance[key] = "flow_integrated"
            # quadrature error: the mu-integral telescopes exactly to C(1)^k
            # in the discrete Wick calculus, so the defect is pure quadrature
            exact_int = sum(c_m * pairing_count(mm, k) * C_one**k for mm, c_m, k in sources)
            quad_errors[key] = abs(flow_int - exact_int)
            # stored curve <f_mu> = f_nu + sum kappa c C(mu)^k
            curve = entries[key] + sum(
                c_m * pairing_count(mm, k) * C_nodes**k for mm, c_m, k in sources
            )
            curves[key] = (nodes.copy(), np.broadcast_to(curve, nodes.shape).copy())
        elif (i, m) == (2, 1) and all(sum(aq) == 0 for aq in a):
            entries[key], sunset_diag = _sunset_counterterm(
                model, spec, nu, anchors, wick, key
            )
            provenance[key] = "oracle"
            curves[key] = (np.array([1.0]), np.array([anchors.get(key, 0.0)]))
        else:
            raise ValidationFault(f"effective flow truncation does not cover relevant index {key}")

    diagnostics = {
        "tadpole_C1": C_one,
        "tadpole_Cmin": C_min,
        "sunset": sunset_diag,
        "mu_levels": j_levels,
        "nodes_per_octave": nodes_per_octave,
        "quad_error": quad_errors,
    }
    coeffs = EffectiveCoefficients(expected=curves)
    result = CounterTermResult(nu=nu, entries=entries, provenance=provenance, diagnostics=diagnostics)
    return coeffs, result


def _sunset_counterterm(model, spec, nu, anchors, wick, key):
    """Second-order (2,1,0) counterterm for the cubic(+linear) Z2 class.

    With u = phi + Ghat_1 * F_1[phi], the order-lambda^2 linear-in-phi part
    of <F_1[phi]> reduces, after the Wick contractions and the cancellation
    (f1 + 3 c T)^2 = anchor1^2, to

        f2 = anchor2 - anchor1^2 I_G - 6 c anchor1 I_GP - 18 c^2 I_GP2,

    where I_G = int Ghat_1, I_GP = int Ghat_1 P, I_GP2 = int Ghat_1 P^2 and
    P is the covariance kernel of Ghat_1 * Xi.
    """
    cubic = [mo for mo in model.monomials if (mo.i, mo.m) == (1, 3) and mo.degree() == 0]
    others = [
        mo
        for mo in model.monomials
        if not ((mo.i, mo.m) in ((1, 3), (1, 1)) and mo.degree() == 0)
    ]
    if others:
        raise ValidationFault(
            "sunset counterterm implemented only for the cubic(+linear) Z2 class"
        )
    if (1, 3, tuple((((0,) * model.d),) * 3)) in anchors:
        c = anchors[(1, 3, tuple((((0,) * model.d),) * 3))]
    elif cubic:
        c = coefficient_value(model, cubic[0], nu)
    else:
        c = 0.0
    a1_key = (1, 1, ((0,) * model.d,))
    anchor1 = anchors.get(a1_key, 0.0)
    anchor2 = anchors.get(key, 0.0)

    n_lags = min(int(np.ceil(2.0 / spec.dt)) + 1, spec.nt)
    P = wick.covariance_kernel(n_lags)
    t = spec.dt * np.arange(n_lags)
    w_np = 1.0 - chi(t)
    ghat_hat = w_np[:, None] * np.exp(-np.outer(t, wick.k_sigma))
    shape = (n_lags, *spec.space_shape())
    ghat = np.fft.ifftn(
        ghat_hat.reshape(shape).astype(complex) * 1.0, axes=tuple(range(1, spec.d + 1))
    ).real * (1.0 / spec.dx**spec.d)
    w_t = np.full(n_lags, spec.dt)
    w_t[0] *= 0.5
    vol = spec.dx**spec.d
    I_G = float(np.sum(w_t[:, None] * ghat.reshape(n_lags, -1)) * vol)
    I_GP = float(np.sum(w_t[:, None] * (ghat * P).reshape(n_lags, -1)) * vol)
    I_GP2 = float(np.sum(w_t[:, None] * (ghat * P**2).reshape(n_lags, -1)) * vol)
    value = anchor2 - anchor1**2 * I_G - 6.0 * c * anchor1 * I_GP - 18.0 * c**2 * I_GP2
    return value, {"I_G": I_G, "I_GP": I_GP, "I_GP2": I_GP2}


# -- coefficient kernels and Taylor maps -----------------------------------


@dataclass
class CoefKernel:
    """Translation-invariant coefficient kernel with m slots, stored over
    difference variables: array with one (space-time) axis pair per slot,
    flattened to a point index of size nt * n^d per slot."""

    spec: LatticeSpec
    data: np.ndarray  # shape (P,) * arity with P = nt * n^d
    arity: int

    def volume(self) -> float:
        return self.spec.dt * self.spec.dx**self.spec.d


def integrate_I(V: CoefKernel) -> float:
    """I V = total mass over all slot variables."""
    return float(np.sum(V.data) * V.volume() ** V.arity)


def _slot_offsets(spec: LatticeSpec) -> list:
    """Per grid point: the space-time offset (t, x_1..x_d) with space
    wrapped to [-pi, pi) and time to [-T/2, T/2) (fixtures centered)."""
    nt, n, d = spec.nt, spec.n, spec.d
    t = spec.dt * np.arange(nt)
    half = spec.dt * nt / 2.0
    t = (t + half) % (spec.dt * nt) - half
    x = spec.dx * np.arange(n)
    x = (x + np.pi) % (2 * np.pi) - np.pi
    grids = np.meshgrid(t, *([x] * d), indexing="ij")
    return [g.ravel() for g in grids]


def moment_weight(spec: LatticeSpec, a: tuple) -> np.ndarray:
    """X^a weight z^a / a! over one slot's flattened points; a is a
    space-time multi-index (a_time, a_x1, ..)."""
    offs = _slot_offsets(spec)
    out = np.ones_like(offs[0])
    for axis, deg in enumerate(a):
        if deg:
            out = out * offs[axis] ** deg / math.factorial(deg)
    return out


def apply_moment(V: CoefKernel, a_list) -> CoefKernel:
    """X^(m,a) V: multiply slot q by z_q^(a_q) / a_q!."""
    if len(a_list) != V.arity:
        raise ValidationFault("moment index list does not match kernel arity")
    data = V.data.copy()
    for q, aq in enumerate(a_list):
        w = moment_weight(V.spec, aq)
        shape = [1] * V.arity
        shape[q] = w.size
        data = data * w.reshape(shape)
    return CoefKernel(V.spec, data, V.arity)


def _st_indices(d: int, max_order: int):
    """Space-time multi-indices (a_t, a_x1..a_xd) with total order <=
    max_order."""
    out = []
    for total in range(max_order + 1):
        for combo in itertools.product(range(total + 1), repeat=d + 1):
            if sum(combo) == total:
                out.append(combo)
    return out


def _gauss_window_deriv(u: np.ndarray, width: float, period: float, order: int):
    """order-th derivative of the periodized Gaussian window
    sum_m exp(-((u + m*period)/width)^2), for orders 0..3."""
    out = np.zeros_like(u, dtype=float)
    w2 = width * width
    for m in range(-3, 4):
        v = u + m * period
        g = np.exp(-v * v / w2)
        if order == 0:
            out += g
        elif order == 1:
            out += -2.0 * v / w2 * g
        elif order == 2:
            out += (-2.0 / w2 + 4.0 * v * v / w2**2) * g
        elif order == 3:
            out += (12.0 * v / w2**2 - 8.0 * v**3 / w2**3) * g
        else:
            raise ValidationFault("window derivatives implemented up to order 3")
    return out


def taylor_decompose(
    V: CoefKernel,
    a: tuple,
    l: int,
    n_tau: int = 8,
    width_t: float | None = None,
    width_x: float | None = None,
) -> dict:
    """Evaluate both sides of the Taylor reconstruction identity for an
    arity-1 kernel: X^(1,a) V versus X^a_l(I(X^b V), X^b V).

    The reconstruction is a distributional identity (the low-order terms
    are derivatives of point masses), so both sides are paired with a fixed
    smooth window phi.  The pairing is evaluated in closed form:
    (d^b L(v)) * phi = v d^b phi and (d^b Z_tau W) * phi =
    int W(v) (d^b phi)(z - tau v) dv, so the tau-contracted kernels never
    have to be represented on the grid.  max_error is the max-norm
    discrepancy of the two smoothed sides."""
    if V.arity != 1:
        raise ValidationFault("taylor_decompose implemented for arity-1 kernels")
    spec = V.spec
    d = spec.d
    if d != 1:
        raise ValidationFault("taylor_decompose implemented for d = 1")
    nt, n = spec.nt, spec.n
    T = spec.dt * nt
    if width_t is None:
        width_t = 0.2 * T
    if width_x is None:
        width_x = 0.2 * TORUS_LEN
    vol = spec.dt * spec.dx

    t_off, x_off = _slot_offsets(spec)
    t_c = t_off[:: spec.n]  # centered time offsets, one per slice
    x_c = x_off[:n]  # centered spatial offsets

    def smoothed_transport(W: np.ndarray, b: tuple, tau: float) -> np.ndarray:
        """sum_v W(v) (d^b phi)(z - tau v) vol over the grid of z."""
        Mt = _gauss_window_deriv(t_c[:, None] - tau * t_c[None, :], width_t, T, b[0])
        Mx = _gauss_window_deriv(x_c[:, None] - tau * x_c[None, :], width_x, TORUS_LEN, b[1])
        return (Mt @ W.reshape(nt, n) @ Mx.T) * vol

    v_low, V_high = {}, {}
    for b in _st_indices(d, l):
        Xb = apply_moment(V, [b])
        if sum(b) < l:
            v_low[b] = integrate_I(Xb)
        elif sum(b) == l:
            V_high[b] = Xb

    direct = smoothed_transport(apply_moment(V, [a]).data, (0, 0), 1.0)

    def binom(ab, aa):
        return int(np.prod([math.comb(ab[j], aa[j]) for j in range(len(ab))]))

    recon = np.zeros((nt, n))
    for b in _st_indices(d, l):
        ab = tuple(a[j] + b[j] for j in range(d + 1))
        if sum(ab) < l:
            if ab not in v_low:
                continue
            dphi_t = _gauss_window_deriv(t_c, width_t, T, b[0])
            dphi_x = _gauss_window_deriv(x_c, width_x, TORUS_LEN, b[1])
            coef = (-1.0) ** sum(b) * binom(ab, a)
            recon += coef * v_low[ab] * np.outer(dphi_t, dphi_x)
        elif sum(ab) == l and sum(b) > 0:
            if ab not in V_high:
                continue
            xg, wg = np.polynomial.legendre.leggauss(n_tau)
            tau_nodes = 0.5 * (xg + 1.0)
            tau_w = 0.5 * wg
            integ = np.zeros((nt, n))
            for tn, tw in zip(tau_nodes, tau_w):
                integ += tw * (1.0 - tn) ** (sum(b) - 1) * smoothed_transport(
                    V_high[ab].data, b, tn
                )
            coef = sum(b) * (-1.0) ** sum(b) * binom(ab, a)
            recon += coef * integ
    return {
        "direct": CoefKernel(spec, direct.ravel(), 1),
        "reconstructed": CoefKernel(spec, recon.ravel(), 1),
        "max_error": float(np.max(np.abs(direct - recon))),
        "moments": v_low,
    }
