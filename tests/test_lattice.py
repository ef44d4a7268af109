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
    forward_transform,
    inverse_transform,
    pair_with_test_function,
    read_fld1,
    write_fld1,
)


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValidationFault):
        LatticeSpec(1, 48, 0.1, 0.0, 1.0, 0.5)  # n not a power of two
    with pytest.raises(ValidationFault):
        LatticeSpec(1, 64, 0.1, 0.0, 1.0, 1.5)  # sigma > d
    with pytest.raises(ValidationFault):
        LatticeSpec(1, 64, 0.1, 1.0, 0.0, 0.5)  # empty window
    with pytest.raises(ValidationFault):
        LatticeSpec(4, 64, 0.1, 0.0, 1.0, 0.5)  # d out of range


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


def test_transform_roundtrip(desk_spec, rng):
    f = Field(desk_spec, rng.standard_normal((desk_spec.nt, desk_spec.n)), SPACE_TIME)
    g = inverse_transform(desk_spec, forward_transform(f), SPACE_TIME)
    np.testing.assert_allclose(g.data, f.data, atol=1e-12)


def test_pairing_is_riemann_sum(desk_spec):
    x = desk_spec.coords()[0]
    f = Field(desk_spec, np.cos(x), SPACE_ONLY)
    # integral of cos^2 over the 2*pi torus is pi; the lattice mode is exact
    assert pair_with_test_function(f, f) == pytest.approx(np.pi, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_fld1_roundtrip(seed, spacetime):
    spec = LatticeSpec(1, 16, 0.05, -0.5, 0.5, 0.5)
    gen = np.random.default_rng(seed)
    if spacetime:
        f = Field(spec, gen.standard_normal((spec.nt, spec.n)), SPACE_TIME)
    else:
        f = Field(spec, gen.standard_normal(spec.n), SPACE_ONLY)
    path = "/tmp/_fld1_roundtrip.fld"
    write_fld1(path, f)
    g = read_fld1(path)
    assert g.domain == f.domain
    np.testing.assert_array_equal(g.data, f.data)
    assert g.spec.d == spec.d and g.spec.n == spec.n
    assert g.spec.sigma == spec.sigma


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
