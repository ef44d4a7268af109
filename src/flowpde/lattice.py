"""Discretization of the spacetime cylinder R x T^d and the DFT contract.

The spatial domain is the d-dimensional torus of size 2*pi sampled on n
points per axis (n a power of two), so the integer frequency vectors are the
exact eigen-frequencies of the fractional Laplacian.  The time axis is a
plain uniform grid -- the equations are causal initial value problems, no
periodicity in time.

DFT normalization: the forward transform carries no factor, the inverse
carries 1/n^d.  Continuum pairings always carry explicit dx^d (and dt)
measures.  This keeps kernel multipliers equal to their continuum formulas
sampled at integer frequencies.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFault, ValidationFault

TORUS_LEN = 2.0 * np.pi

SPACE_ONLY = "space_only"
SPACE_TIME = "space_time"

_FLD1_MAGIC = b"FLD1"
_FLD1_HEADER_BYTES = 40


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def check_whole_steps(span: float, dt: float, what: str) -> None:
    """ValidationFault naming `what` unless span / dt is finite and within
    1e-9 of its size of an integer."""
    steps = span / dt
    if not math.isfinite(steps):
        raise ValidationFault(f"{what} is not a finite number of steps of dt")
    if abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)):
        raise ValidationFault(f"{what} must be an integer multiple of dt")


@dataclass(frozen=True)
class LatticeSpec:
    """Grid for fields on [t_min, t_max] x T^d.

    sigma is the order of the fractional Laplacian; it tags the lattice
    because the parabolic scaling [mu] = mu^(1/sigma) couples the two axes.
    """

    d: int
    n: int
    dt: float
    t_min: float
    t_max: float
    sigma: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValidationFault(f"spatial dimension must be 1..3, got {self.d}")
        if not _is_pow2(self.n):
            raise ValidationFault(f"n must be a power of two, got {self.n}")
        if not all(math.isfinite(v) for v in (self.dt, self.t_min, self.t_max, self.sigma)):
            raise ValidationFault("dt, t_min, t_max and sigma must be finite")
        if not self.dt > 0:
            raise ValidationFault("dt must be positive")
        if not self.t_min < self.t_max:
            raise ValidationFault("need t_min < t_max")
        if not 0 < self.sigma <= self.d:
            raise ValidationFault(
                f"sigma must lie in (0, d]; got sigma={self.sigma}, d={self.d}"
            )
        check_whole_steps(self.t_max - self.t_min, self.dt, "window length")

    # -- geometry ---------------------------------------------------------

    @property
    def dx(self) -> float:
        return TORUS_LEN / self.n

    @property
    def nt(self) -> int:
        """Number of time slices, including both endpoints."""
        return int(round((self.t_max - self.t_min) / self.dt)) + 1

    def times(self) -> np.ndarray:
        return self.t_min + self.dt * np.arange(self.nt)

    def space_shape(self) -> tuple:
        return (self.n,) * self.d

    def axis_freqs(self) -> np.ndarray:
        """Integer frequencies per axis: {-n/2, ..., n/2 - 1} in FFT order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)

    def freq_grids(self) -> tuple:
        k = self.axis_freqs()
        return np.meshgrid(*([k] * self.d), indexing="ij")

    _knorm_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def k_norm(self) -> np.ndarray:
        """|k| on the full frequency grid, shape (n,)*d."""
        key = "knorm"
        if key not in self._knorm_cache:
            grids = self.freq_grids()
            self._knorm_cache[key] = np.sqrt(sum(g.astype(float) ** 2 for g in grids))
        return self._knorm_cache[key]

    def coords(self) -> tuple:
        x = self.dx * np.arange(self.n)
        return np.meshgrid(*([x] * self.d), indexing="ij")

    def scale_of(self, mu: float) -> float:
        """Parabolic scale [mu] = mu^(1/sigma)."""
        if mu < 0:
            raise ValidationFault("scale mu must be nonnegative")
        return float(mu) ** (1.0 / self.sigma)

    def with_window(self, t_min: float, t_max: float) -> "LatticeSpec":
        return LatticeSpec(self.d, self.n, self.dt, t_min, t_max, self.sigma)


@dataclass
class Field:
    """Real-valued field on the lattice, either one slice or the full window."""

    spec: LatticeSpec
    data: np.ndarray
    domain: str

    def __post_init__(self):
        if self.domain not in (SPACE_ONLY, SPACE_TIME):
            raise ValidationFault(f"unknown domain tag {self.domain!r}")
        expected = self.spec.space_shape()
        if self.domain == SPACE_TIME:
            expected = (self.spec.nt,) + expected
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != expected:
            raise ValidationFault(
                f"data shape {self.data.shape} != expected {expected} for {self.domain}"
            )
        check_finite(self.data)

    def copy(self) -> "Field":
        return Field(self.spec, self.data.copy(), self.domain)


def check_finite(data: np.ndarray) -> None:
    bad = ~np.isfinite(data)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NumericalFault(f"non-finite value at index {idx}")


def fft_space(data: np.ndarray, d: int) -> np.ndarray:
    """DFT over the trailing d axes: the 1-d transforms np.fft.fftn runs,
    in its order, without its per-call overhead (which dominates at the
    solver's slice sizes)."""
    for axis in range(-1, -d - 1, -1):
        data = np.fft.fft(data, axis=axis)
    return data


def ifft_space(coeffs: np.ndarray, d: int) -> np.ndarray:
    """Inverse of fft_space (1/n^d factor), as np.fft.ifftn computes it."""
    for axis in range(-1, -d - 1, -1):
        coeffs = np.fft.ifft(coeffs, axis=axis)
    return coeffs


def fft_time(data: np.ndarray, m: int) -> np.ndarray:
    """DFT along the leading (time) axis of data, zero-padded to m points,
    returned time-last (space..., m): a contiguous transform, in place."""
    buf = np.zeros(data.shape[1:] + (m,), dtype=complex)
    buf[..., : data.shape[0]] = np.moveaxis(data, 0, -1)
    return np.fft.fft(buf, axis=-1, out=buf)


def forward_transform(f: Field) -> np.ndarray:
    """DFT over the spatial axes (no normalization factor)."""
    check_finite(f.data)
    return fft_space(f.data, f.spec.d)


def inverse_transform(spec: LatticeSpec, coeffs: np.ndarray, domain: str) -> Field:
    """Inverse DFT (1/n^d factor); imaginary residue of real fields dropped.
    The field owns a contiguous copy of the real part, so the complex
    transform is freed."""
    return Field(spec, ifft_space(coeffs, spec.d).real.copy(), domain)


def pair_with_test_function(f: Field, psi: Field) -> float:
    """<f, psi> as a Riemann sum with dx^d (and dt for space_time) measure."""
    if f.spec != psi.spec or f.domain != psi.domain:
        raise ValidationFault("pairing requires identical spec and domain tag")
    s = float(np.sum(f.data * psi.data)) * f.spec.dx**f.spec.d
    if f.domain == SPACE_TIME:
        s *= f.spec.dt
    return s


# -- FLD1 snapshot format --------------------------------------------------
#
# magic "FLD1"; u32 LE: d, n, n_t; f64 LE: dt, t_min, sigma; then the payload
# as f64 LE, row-major with time outermost.  n_t == 0 encodes a space_only
# field (payload n^d values); n_t >= 1 a space_time field with n_t slices.


def write_fld1(path, f: Field) -> None:
    nt = f.spec.nt if f.domain == SPACE_TIME else 0
    header = _FLD1_MAGIC + struct.pack(
        "<III", f.spec.d, f.spec.n, nt
    ) + struct.pack("<ddd", f.spec.dt, f.spec.t_min, f.spec.sigma)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.data, dtype="<f8").tobytes())


def read_fld1(path) -> Field:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _FLD1_MAGIC:
        raise ValidationFault(f"bad magic {raw[:4]!r}, expected FLD1")
    if len(raw) < _FLD1_HEADER_BYTES:
        raise ValidationFault(f"FLD1 header truncated at {len(raw)} bytes")
    d, n, nt = struct.unpack_from("<III", raw, 4)
    dt, t_min, sigma = struct.unpack_from("<ddd", raw, 16)
    payload = memoryview(raw)[_FLD1_HEADER_BYTES:]
    if nt == 0:
        # window endpoints are not stored for single slices; use one step
        spec = LatticeSpec(d, n, dt, t_min, t_min + dt, sigma)
        shape, domain = (n,) * d, SPACE_ONLY
    else:
        spec = LatticeSpec(d, n, dt, t_min, t_min + dt * (nt - 1), sigma)
        shape, domain = (nt,) + (n,) * d, SPACE_TIME
    expected = 8 * math.prod(shape)
    if len(payload) != expected:
        raise ValidationFault(
            f"FLD1 payload holds {len(payload)} bytes, the header implies {expected}"
        )
    data = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    if not np.all(np.isfinite(data)):
        raise ValidationFault("FLD1 payload holds a non-finite value")
    return Field(spec, data, domain)
