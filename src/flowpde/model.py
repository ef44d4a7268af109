"""Declarative force specification and scaling-dimension bookkeeping.

The macroscopic force is

    F_nu[phi] = Xi_nu + sum_(i,m,a) (-1)^|a| lambda^i f^(i,m,a)_nu
                                     d^(a_1) phi ... d^(a_m) phi,

with each a_q a spatial multi-index of degree < sigma (semilinearity).
Scaling exponent of a coefficient:

    rho(i, m, a) = -dim(Xi) + i dim(lambda) + m dim(Phi) + [a],

dim(Phi) = (d - sigma)/2, dim(Xi) = (d + sigma)/2; rho <= 0 is relevant
(requires a renormalization condition), rho > 0 irrelevant (boundary value
prescribed directly, scaling as [nu]^(rho + extra)).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationFault
from .lattice import Field, LatticeSpec, rfft_space

SYMMETRIES = ("none", "parity_z2", "shift_r")


def _norm_index(a, m: int, d: int):
    """Normalize a monomial's derivative list to a tuple of m multi-indices."""
    if a is None or a == 0 or len(a) == 0:
        a = [[0] * d for _ in range(m)]
    a = tuple(tuple(int(x) for x in aq) for aq in a)
    if len(a) != m:
        raise ValidationFault(f"need {m} multi-indices, got {len(a)}")
    for aq in a:
        if len(aq) != d or any(x < 0 for x in aq):
            raise ValidationFault(f"bad spatial multi-index {aq} for d={d}")
    return a


@dataclass(frozen=True)
class Monomial:
    """One force term: order i in lambda, arity m, spatial derivative indices
    a (tuple of m multi-indices), base amplitude, and the extra [nu]-exponent
    used to make irrelevant terms vanish faster.  The arity is at most
    MAX_ARITY: the flow's pairing counts m! / ((m - 2k)! k! 2^k) of such a
    term overflow a float near m = 300."""

    MAX_ARITY = 64

    i: int
    m: int
    a: tuple
    base: float = 0.0
    extra_exponent: float = 0.0

    def __post_init__(self):
        if not 0 <= self.m <= self.MAX_ARITY:
            raise ValidationFault(f"monomial arity m must lie in 0..{self.MAX_ARITY}, got {self.m}")
        for name in ("base", "extra_exponent"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationFault(f"monomial {name} must be finite, got {getattr(self, name)}")

    def degree(self) -> int:
        return int(sum(sum(aq) for aq in self.a))


@dataclass(frozen=True)
class ModelSpec:
    """The force's scaling data on R x T^d, d in 1..4 (a lattice takes
    1..3; the classification also serves the paper's d = 4 regime)."""

    d: int
    sigma: float
    dim_lambda: float
    lam: float
    monomials: tuple
    symmetry: str = "none"
    noise: object = None

    def __post_init__(self):
        if self.d not in (1, 2, 3, 4):
            raise ValidationFault(f"model dimension d must be 1..4, got {self.d}")
        if self.symmetry not in SYMMETRIES:
            raise ValidationFault(f"unknown symmetry {self.symmetry!r}")
        for name in ("sigma", "dim_lambda", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationFault(f"{name} must be finite, got {getattr(self, name)}")
        if self.dim_lambda <= 0:
            raise ValidationFault("outside supported regime: dim(lambda) must be > 0")
        if self.dim_phi < 0:
            raise ValidationFault("outside supported regime: dim(Phi) must be >= 0")
        mono = tuple(
            replace(mo, a=_norm_index(mo.a, mo.m, self.d)) for mo in self.monomials
        )
        object.__setattr__(self, "monomials", mono)
        for mo in mono:
            if mo.i < 1:
                raise ValidationFault("monomial order i must be >= 1")
            for aq in mo.a:
                if sum(aq) >= self.sigma:
                    raise ValidationFault(
                        f"semilinearity violated: |a_q|={sum(aq)} >= sigma={self.sigma}"
                    )

    # -- dimensions -------------------------------------------------------

    @property
    def dim_phi(self) -> float:
        return (self.d - self.sigma) / 2.0

    @property
    def dim_xi(self) -> float:
        return (self.d + self.sigma) / 2.0

    def rho(self, i: int, m: int, a=0) -> float:
        """Scaling exponent rho(i, m, a); a may be a total spatial degree or
        a tuple of multi-indices."""
        if isinstance(a, (int, float)):
            deg = float(a)
        else:
            deg = float(sum(sum(aq) for aq in a))
        return -self.dim_xi + i * self.dim_lambda + m * self.dim_phi + deg

    # -- derived integers -------------------------------------------------

    @property
    def i_diamond(self) -> int:
        """Largest i with rho(i, 0, 0) <= 0."""
        i = 0
        while self.rho(i + 1, 0) <= 0:
            i += 1
        return i

    @property
    def i_rhd(self) -> int:
        """Largest i with rho(i, 0, 0) + sigma <= 0: the order of the
        stationary truncation of solver.build_stationary_shift, a field of
        the analysis; every solve is the direct one at any i_rhd."""
        i = -1
        while self.rho(i + 1, 0) + self.sigma <= 0:
            i += 1
        return max(i, 0)

    @property
    def i_flat(self) -> int:
        return max((mo.i for mo in self.monomials), default=1)

    @property
    def m_flat(self) -> int:
        return max((mo.m for mo in self.monomials), default=1)

    # -- classification ---------------------------------------------------

    def _spatial_indices_of_degree(self, deg: int):
        """All multi-indices on d axes with total degree deg."""
        if deg == 0:
            yield (0,) * self.d
            return
        for combo in itertools.combinations_with_replacement(range(self.d), deg):
            idx = [0] * self.d
            for c in combo:
                idx[c] += 1
            yield tuple(idx)

    def _index_lists(self, m: int, total_deg: int):
        """Sorted lists of m spatial multi-indices, each of degree < sigma,
        with total degree total_deg (up to slot permutation), each once:
        the multisets of nondecreasing slot degrees and, per degree, of
        that degree's multi-indices.  They come in the order in which the
        sorted slot assignments of the degree-tuple product first yield
        them: by the degrees ascending, then by the multi-indices' ranks."""
        max_deg = int(np.ceil(self.sigma)) - 1
        for degs in itertools.combinations_with_replacement(range(max_deg + 1), m):
            if sum(degs) != total_deg:
                continue
            groups = [
                itertools.combinations_with_replacement(list(self._spatial_indices_of_degree(dg)), degs.count(dg))
                for dg in sorted(set(degs))
            ]
            for combo in itertools.product(*groups):
                yield tuple(sorted(itertools.chain.from_iterable(combo)))

    def enumerate_indices(self):
        """All (i, m, a) with i <= i_flat + i_diamond, m <= m_flat * i and
        rho <= 0, plus those carried by the declared monomials.  rho grows
        with i (dim lambda > 0) and does not fall with m or the degree (dim
        Phi >= 0), so the walk over i stops at the first rho(i, 0, 0) > 0,
        the walk over m at the first rho(i, m, 0) > 0, and no derivative
        pattern of such an (i, m) is listed: the cost follows the output."""
        seen = set()
        out = []
        i_max = self.i_flat + self.i_diamond
        for i in range(0, i_max + 1):
            if self.rho(i, 0, 0) > 0:
                break
            m_max = self.m_flat * i if i > 0 else 0
            for m in range(0, m_max + 1):
                if self.rho(i, m, 0) > 0:
                    break
                deg = 0
                while True:
                    if self.rho(i, m, deg) > 0:
                        break
                    if deg >= self.sigma * m + 1 and m > 0:
                        break
                    for a in self._index_lists(m, deg) if m > 0 else [()]:
                        key = (i, m, a)
                        if key not in seen:
                            seen.add(key)
                            out.append(key)
                    deg += 1
                    if m == 0:
                        break
        for mo in self.monomials:
            key = (mo.i, mo.m, tuple(sorted(mo.a)))
            if key not in seen:
                seen.add(key)
                out.append(key)
        return out

    def relevant_indices(self):
        idx = [k for k in self.enumerate_indices() if self.rho(k[0], k[1], k[2]) <= 0]
        return [k for k in idx if not (k[0] == 0 and k[1] == 0)]


def allowed_by_symmetry(spec: ModelSpec, i: int, m: int, a) -> bool:
    """Both symmetry groups sit on top of the spatial isometries of the
    torus, under which a coefficient with odd total derivative degree must
    vanish."""
    if sum(sum(aq) for aq in a) % 2 == 1:
        return False
    if spec.symmetry == "parity_z2" and m % 2 == 0:
        return False
    if spec.symmetry == "shift_r" and (m == 0 or any(sum(aq) == 0 for aq in a)):
        return False
    return True


def relevant_filtered(spec: ModelSpec):
    """Relevant indices surviving the declared symmetry: the keys a
    renormalization scheme must supply, as a fresh list.  Cached on the
    fields the set depends on, not on the noise or the coefficients."""
    monomials = tuple((mo.i, mo.m, tuple(sorted(mo.a))) for mo in spec.monomials)
    return list(_relevant_filtered(spec.d, spec.sigma, spec.dim_lambda, spec.symmetry, monomials))


@functools.lru_cache(maxsize=64)
def _relevant_filtered(d: int, sigma: float, dim_lambda: float, symmetry: str, monomials: tuple) -> tuple:
    spec = ModelSpec(d, sigma, dim_lambda, 0.0, tuple(Monomial(i, m, a) for i, m, a in monomials), symmetry)
    return tuple(k for k in spec.relevant_indices() if allowed_by_symmetry(spec, *k))


@dataclass(frozen=True)
class RenormScheme:
    """Renormalization parameters: anchor values of the expected effective
    coefficients at scale mu = 1 for the relevant indices surviving the
    symmetry filter; all others are forced to zero."""

    values: tuple  # tuple of ((i, m, a), value)

    @staticmethod
    def for_model(spec: ModelSpec, user_values: dict | None = None) -> "RenormScheme":
        user_values = dict(user_values or {})
        entries = []
        for key in relevant_filtered(spec):
            entries.append((key, float(user_values.pop(key, 0.0))))
        if user_values:
            raise ValidationFault(
                f"renormalization values for non-relevant or filtered indices: "
                f"{sorted(user_values)}"
            )
        return RenormScheme(values=tuple(entries))

    def as_dict(self) -> dict:
        return dict(self.values)


def coefficient_value(spec: ModelSpec, mo: Monomial, nu: float) -> float:
    """Boundary value of a prescribed (irrelevant or bare) coefficient:
    base * [nu]^(max(rho,0) + extra)."""
    r = spec.rho(mo.i, mo.m, mo.a)
    lam_nu = float(nu) ** (1.0 / spec.sigma)
    return mo.base * lam_nu ** (max(r, 0.0) + mo.extra_exponent)


def derivative_multiplier(lattice: LatticeSpec, aq: tuple) -> np.ndarray:
    """Fourier multiplier of d^aq on the rfft half: the Hermitian part of
    prod_j (i k_j)^(aq_j), which is 0 where an odd number of its odd factors
    sit at their Nyquist index k_j = -n/2 (the lattice's DFT contract)."""
    half = (..., slice(0, lattice.n // 2 + 1))
    mult, odd = 1.0, False
    for k, deg in zip(lattice.freq_grids(), aq):
        mult = mult * (1j * k[half]) ** deg
        odd = odd ^ ((deg % 2 == 1) & (k[half] == -lattice.n // 2))
    return np.where(odd, 0.0, mult)


def _apply_multiplier(mult: np.ndarray | None, data: np.ndarray) -> np.ndarray:
    """Spectral multiplication over the trailing spatial axes of a slice or a
    window by a multiplier on the rfft half; the data itself when there is
    no multiplier."""
    if mult is None:
        return data
    d = mult.ndim
    return np.fft.irfftn(mult * rfft_space(data, d), data.shape[-d:], tuple(range(-d, 0)))


@dataclass(frozen=True)
class CompiledForce:
    """N = F_nu - Xi_nu, the polynomial part of the force, of one (model,
    counterterms, nu) on one lattice, built once.

    `table` maps (i, m, a) to its coefficient without lambda^i: the declared
    monomials, then the relevant_filtered keys, in that order.  `mults` maps
    each nonzero a_q to its derivative multiplier.  `terms` holds each
    nonzero term as (its scalar (-1)^|a| lambda^i coeff, m, a or None when
    no factor carries a derivative), built once; stack_forces makes each
    scalar a column of one value per row of a stack.

    A call may be handed `out` and `work`, two arrays of phi's shape and
    dtype that overlap neither phi nor each other: the force is written
    into `out`, `work` holds each plain term on its way there, and both
    are fresh arrays when not given.  The result is the same bit for bit
    either way; the solver's stepping loop hands over buffers it holds for
    a whole solve, every other caller lets the call allocate.
    """

    lam: float
    table: dict
    mults: dict
    terms: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.terms is None:
            terms = [((-1.0) ** sum(map(sum, a)) * self.lam**i * c, m, a if any(map(any, a)) else None)
                     for (i, m, a), c in self.table.items() if c != 0.0]
            object.__setattr__(self, "terms", tuple(terms))

    @property
    def shape(self) -> tuple:
        """The (m, a) of each term: forces of one shape stack."""
        return tuple((m, a) for _, m, a in self.terms)

    def take(self, rows) -> "CompiledForce":
        """The force of the stack rows `rows`: its scalar columns cut to them."""
        return replace(self, terms=tuple((s if np.ndim(s) == 0 else s[rows], m, a) for s, m, a in self.terms))

    def monomial(self, factors, a: tuple):
        """prod_q d^(a_q) factors[q]; the scalar 1.0 when m = 0."""
        parts = (_apply_multiplier(self.mults.get(aq), u) for u, aq in zip(factors, a))
        return functools.reduce(np.multiply, parts, 1.0)

    def __call__(self, phi: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
        """sum (-1)^|a| lambda^i f^(i,m,a) d^(a_1) phi ... d^(a_m) phi: each
        term its scalar times the product, plain where no factor is derived.
        A plain product is multiplied up in `work` in math.prod([phi] * m)'s
        order (its leading 1 * phi is exact), a derived one takes monomial."""
        out = np.empty_like(phi) if out is None else out
        out.fill(0.0)
        work = np.empty_like(phi) if work is None else work
        for scale, m, a in self.terms:
            if a is not None:
                out += scale * self.monomial([phi] * m, a)
            elif m == 0:
                out += scale
            else:
                prod = phi
                for _ in range(m - 1):
                    prod = np.multiply(prod, phi, out=work)
                out += np.multiply(prod, scale, out=work)
        return out


def compile_force(spec: ModelSpec, counterterms, nu: float, lattice: LatticeSpec) -> CompiledForce:
    """The force's term table and derivative multipliers.

    Relevant coefficients come from `counterterms` (a CounterTermResult or a
    plain dict keyed by (i, m, a)); prescribed coefficients from the monomial
    list.  A missing relevant coefficient faults with the index, and so does
    a counterterm whose index is neither relevant after the symmetry filter
    nor a declared monomial (the rule of RenormScheme.for_model).
    """
    ct = _ct_dict(counterterms)
    table = {}
    for mo in spec.monomials:
        table[(mo.i, mo.m, tuple(sorted(mo.a)))] = coefficient_value(spec, mo, nu)
    for key in relevant_filtered(spec):
        if key in ct:
            table[key] = ct[key]
        elif key not in table:
            raise ValidationFault(f"missing relevant coefficient for index {key}")
    stray = sorted(key for key in ct if key not in table)
    if stray:
        raise ValidationFault(f"counterterms for non-relevant or filtered indices: {stray}")
    mults = {aq: derivative_multiplier(lattice, aq) for (_, _, a) in table for aq in a if any(aq)}
    return CompiledForce(spec.lam, table, mults)


def stack_forces(forces: list, rows: int, d: int) -> CompiledForce:
    """One force for a stack of len(forces) groups of `rows` rows each, in
    order, on a lattice of dimension d: each term's scalar becomes a column
    of one value per row, (rows in all, 1, ..., 1), so every row's product
    is scaled by its own value, bit for bit.  The forces must share their
    shape; the stack keeps the first one's table and lam."""
    first = forces[0]
    if any(f.shape != first.shape for f in forces):
        raise ValidationFault("the forces of one stack must share their terms (m, a)")
    if len(forces) == 1 or not first.terms:
        return first
    scales = np.repeat([[s for s, _, _ in f.terms] for f in forces], rows, axis=0)
    columns = scales.T.reshape(len(first.terms), -1, *(1,) * d)
    return replace(first, terms=tuple((c, m, a) for c, (_, m, a) in zip(columns, first.terms)))


def evaluate_force(
    spec: ModelSpec,
    counterterms,
    phi: Field,
    noise: Field | None,
    nu: float,
) -> Field:
    """Pointwise evaluation of F_nu[phi] = Xi_nu + N[phi] on the lattice
    (one-shot form of compile_force, plus the noise when given)."""
    force = compile_force(spec, counterterms, nu, phi.spec)
    out = force(phi.data)
    if noise is not None:
        out += noise.data
    return Field(phi.spec, out, phi.domain)


def _ct_dict(counterterms) -> dict:
    if counterterms is None:
        return {}
    if isinstance(counterterms, dict):
        return counterterms
    return counterterms.as_dict()


# -- preset model library --------------------------------------------------


def preset(name: str, lam: float = 1.0, base: float = -1.0, noise=None) -> ModelSpec:
    """Model configurations used as regression fixtures.

    phi4_3d: d=3, sigma=2, dim(lambda)=1 (the dynamic phi^4_3 equation);
    phi4_desk: d=1, sigma=1/2 cubic -- the desk-scale workhorse;
    linear_desk: phi4_desk's lattice without a force term.
    """
    if name == "phi4_3d":
        return ModelSpec(
            d=3,
            sigma=2.0,
            dim_lambda=1.0,
            lam=lam,
            monomials=(Monomial(i=1, m=3, a=0, base=base),),
            symmetry="parity_z2",
            noise=noise,
        )
    if name == "phi4_desk":
        return ModelSpec(
            d=1,
            sigma=0.5,
            dim_lambda=0.3,
            lam=lam,
            monomials=(Monomial(i=1, m=3, a=0, base=base),),
            symmetry="parity_z2",
            noise=noise,
        )
    if name == "linear_desk":
        return ModelSpec(
            d=1,
            sigma=0.5,
            dim_lambda=0.3,
            lam=lam,
            monomials=(),
            symmetry="none",
            noise=noise,
        )
    raise ValidationFault(f"unknown preset {name!r}")
