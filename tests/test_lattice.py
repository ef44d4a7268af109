import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpde.errors import NumericalFault, ValidationFault
from flowpde.lattice import (
    SPACE_ONLY,
    SPACE_TIME,
    Field,
    LatticeSpec,
    check_finite,
    irfft_space,
    pair_with_test_function,
    padded_length,
    read_fld1,
    rfft_space,
    write_fld1,
)


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValidationFault):
        LatticeSpec(1, 48, 0.1, 0.0, 1.0, 0.5)  # n not a power of two
    for n in (1, 2):  # powers of two below the least n
        with pytest.raises(ValidationFault, match=f"at least 4, got {n}"):
            LatticeSpec(1, n, 0.1, 0.0, 1.0, 0.5)
    assert LatticeSpec(1, 4, 0.1, 0.0, 1.0, 0.5).k_half().shape == (3,)
    with pytest.raises(ValidationFault):
        LatticeSpec(1, 64, 0.1, 0.0, 1.0, 1.5)  # sigma > d
    with pytest.raises(ValidationFault):
        LatticeSpec(1, 64, 0.1, 1.0, 0.0, 0.5)  # empty window
    with pytest.raises(ValidationFault):
        LatticeSpec(4, 64, 0.1, 0.0, 1.0, 0.5)  # d out of range
    for dt in (1e10, 1e300):  # a window that rounds to zero steps
        with pytest.raises(ValidationFault, match=re.escape(f"dt = {dt:g} leaves no whole step")):
            LatticeSpec(1, 16, dt, -2.0, 1.0, 0.5)
    for bad in ((np.inf, 0.0, 1.0, 0.5), (0.1, -np.inf, 1.0, 0.5), (0.1, 0.0, np.inf, 0.5),
                (0.1, 0.0, np.nan, 0.5), (0.1, 0.0, 1.0, np.nan), (5e-324, 0.0, 1.0, 0.5)):
        with pytest.raises(ValidationFault, match="finite"):
            LatticeSpec(1, 64, *bad)  # non-finite parameter or window length


def test_spec_geometry(desk_spec):
    assert desk_spec.nt == len(desk_spec.times())
    assert desk_spec.times()[0] == pytest.approx(desk_spec.t_min)
    assert desk_spec.times()[-1] == pytest.approx(desk_spec.t_max)
    assert desk_spec.dx == pytest.approx(2.0 * np.pi / desk_spec.n)
    # parabolic scale pairing: [mu] = mu^(1/sigma)
    assert desk_spec.scale_of(0.25) == pytest.approx(0.25 ** (1.0 / desk_spec.sigma))


def test_frequencies_are_integers(desk_spec):
    freqs = desk_spec.axis_freqs()
    assert np.all(freqs == np.round(freqs))
    assert freqs.max() == desk_spec.n // 2 - 1


def test_field_shape_validation(desk_spec):
    with pytest.raises(ValidationFault):
        Field(desk_spec, np.zeros(desk_spec.n + 1), SPACE_ONLY)
    with pytest.raises(ValidationFault):
        Field(desk_spec, np.zeros((3, desk_spec.n)), SPACE_TIME)


def test_check_finite_reports_index():
    data = np.zeros((4, 4))
    data[2, 1] = np.nan
    with pytest.raises(NumericalFault, match=r"\(2, 1\)"):
        check_finite(data)


def test_transform_roundtrip(rng):
    """rfft_space / irfft_space invert each other on a window at d = 1, 2
    and 3, the half spectrum is rfftn's, and out= receives each result."""
    for d, n in ((1, 64), (2, 16), (3, 8)):
        spec = LatticeSpec(d, n, 0.1, 0.0, 0.5, 0.5)
        data = rng.standard_normal((spec.nt, *spec.space_shape()))
        coeffs = np.empty((spec.nt, *spec.k_half().shape), dtype=complex)
        assert rfft_space(data, d, out=coeffs) is coeffs
        np.testing.assert_array_equal(coeffs, np.fft.rfftn(data, axes=tuple(range(1, d + 1))))
        back = np.empty_like(data)
        assert irfft_space(coeffs, spec, out=back) is back
        np.testing.assert_allclose(back, data, rtol=0, atol=1e-12)


def _is_5_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_padded_length_is_the_least_5_smooth_length():
    smooth = [m for m in range(1, 5200) if _is_5_smooth(m)]
    for size in range(1, 5001):
        m = padded_length(size)
        assert m == min(k for k in smooth if k >= size), size
    # the drive spectra of criterion 7's lattice and of flowpde simulate's
    assert (padded_length(1202), padded_length(1402)) == (1215, 1440)


def test_pairing_is_riemann_sum(desk_spec):
    x = desk_spec.coords()[0]
    f = Field(desk_spec, np.cos(x), SPACE_ONLY)
    # integral of cos^2 over the 2*pi torus is pi; the lattice mode is exact
    assert pair_with_test_function(f, f) == pytest.approx(np.pi, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fld1_roundtrip(data):
    """A random valid field reads back exactly.  After a truncation, an
    extension or a single-byte change of its bytes, reading returns a
    finite Field or raises ValidationFault, and nothing else."""
    d = data.draw(st.integers(1, 2))
    n = data.draw(st.sampled_from([4, 8]))  # the least n is 4
    nt = data.draw(st.sampled_from([0, 2, 3, 5]))  # 0: a space_only field
    dt = data.draw(st.floats(1e-3, 1.0))
    t_min = data.draw(st.floats(-10.0, 10.0))
    sigma = data.draw(st.floats(0.1, float(d)))
    spec = LatticeSpec(d, n, dt, t_min, t_min + dt * max(nt - 1, 1), sigma)
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = spec.space_shape() if nt == 0 else (spec.nt, *spec.space_shape())
    f = Field(spec, gen.standard_normal(shape), SPACE_ONLY if nt == 0 else SPACE_TIME)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.fld"
        write_fld1(path, f)
        g = read_fld1(path)
        assert g.domain == f.domain and g.spec == spec
        np.testing.assert_array_equal(g.data, f.data)

        raw = path.read_bytes()
        kind = data.draw(st.sampled_from(["truncate", "extend", "change"]))
        if kind == "truncate":
            raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "extend":
            raw = raw + data.draw(st.binary(min_size=1, max_size=16))
        else:
            i = data.draw(st.integers(0, len(raw) - 1))
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[i]))
            raw = raw[:i] + bytes([byte]) + raw[i + 1 :]
        path.write_bytes(raw)
        try:
            g = read_fld1(path)
        except ValidationFault:
            return
        assert np.all(np.isfinite(g.data))


def _patched_fld1(path, offset: int, value: float):
    """A valid space_time FLD1 file with one f64 replaced at `offset`."""
    spec = LatticeSpec(1, 16, 0.05, -0.5, 0.5, 0.5)
    write_fld1(path, Field(spec, np.ones((spec.nt, spec.n)), SPACE_TIME))
    raw = bytearray(path.read_bytes())
    raw[offset : offset + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    return path


def test_fld1_non_finite_payload_is_a_validation_fault(tmp_path):
    p = _patched_fld1(tmp_path / "nan.fld", 40 + 8 * 37, np.nan)
    with pytest.raises(ValidationFault, match="non-finite"):
        read_fld1(p)


def test_fld1_header_with_huge_dt_is_a_validation_fault(tmp_path):
    # 20 steps of dt = 1e308 end at t = inf
    p = _patched_fld1(tmp_path / "dt.fld", 16, 1e308)
    with pytest.raises(ValidationFault, match="finite"):
        read_fld1(p)


def test_fld1_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.fld"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValidationFault, match="magic"):
        read_fld1(p)


@pytest.mark.parametrize("spacetime", [False, True])
@pytest.mark.parametrize("cut", [8, 100])
def test_fld1_rejects_truncated_payload(tmp_path, spacetime, cut):
    spec = LatticeSpec(1, 16, 0.05, -0.5, 0.5, 0.5)
    shape = (spec.nt, spec.n) if spacetime else (spec.n,)
    f = Field(spec, np.ones(shape), SPACE_TIME if spacetime else SPACE_ONLY)
    p = tmp_path / "short.fld"
    write_fld1(p, f)
    p.write_bytes(p.read_bytes()[:-cut])
    with pytest.raises(ValidationFault, match="payload"):
        read_fld1(p)


def test_fld1_rejects_trailing_bytes(tmp_path):
    spec = LatticeSpec(1, 16, 0.05, -0.5, 0.5, 0.5)
    p = tmp_path / "long.fld"
    write_fld1(p, Field(spec, np.ones(spec.n), SPACE_ONLY))
    p.write_bytes(p.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValidationFault, match="payload"):
        read_fld1(p)


def test_fld1_rejects_truncated_header(tmp_path):
    spec = LatticeSpec(1, 16, 0.05, -0.5, 0.5, 0.5)
    p = tmp_path / "stub.fld"
    write_fld1(p, Field(spec, np.ones(spec.n), SPACE_ONLY))
    p.write_bytes(p.read_bytes()[:20])
    with pytest.raises(ValidationFault, match="header"):
        read_fld1(p)
