import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpde.errors import ValidationFault
from flowpde.lattice import SPACE_ONLY, SPACE_TIME, Field, LatticeSpec
from flowpde.model import (
    CompiledForce,
    ModelSpec,
    Monomial,
    RenormScheme,
    coefficient_value,
    derivative_multiplier,
    evaluate_force,
    preset,
    relevant_filtered,
    stack_forces,
)


def test_desk_model_dimensions(desk_model):
    assert desk_model.dim_phi == pytest.approx(0.25)
    assert desk_model.dim_xi == pytest.approx(0.75)
    # the cubic itself sits above criticality: it needs no renormalization
    assert desk_model.rho(1, 3, 0) == pytest.approx(0.3)
    # its linear descendant is the only relevant direction after parity
    assert desk_model.rho(1, 1, 0) == pytest.approx(-0.2)


def test_desk_model_classification(desk_model):
    assert relevant_filtered(desk_model) == [(1, 1, ((0,),))]
    cubic = (1, 3, ((0,), (0,), (0,)))
    assert cubic in desk_model.enumerate_indices() and desk_model.rho(*cubic) > 0
    assert desk_model.i_diamond >= 1
    assert desk_model.m_flat == 3


@pytest.mark.parametrize(
    "model, relevant, kept",
    [
        (replace(preset("phi4_3d"), symmetry="none", dim_lambda=0.3), 34, 22),
        (
            ModelSpec(d=4, sigma=2.5, dim_lambda=0.5, lam=0.3, monomials=(Monomial(1, 3, 0, -1.0),), symmetry="parity_z2"),
            42,
            17,
        ),
        (replace(preset("phi4_desk"), dim_lambda=1e-4), 15000, 5000),
        (
            ModelSpec(d=2, sigma=2.0, dim_lambda=0.2, lam=0.3, monomials=(Monomial(1, 3, 0, -1.0),), symmetry="parity_z2"),
            265,
            85,
        ),
    ],
    ids=[
        "phi4_3d-none-dim_lambda-0.3",
        "d4-sigma-2.5-cubic-dim_lambda-0.5",
        "phi4_desk-dim_lambda-1e-4",
        "d2-sigma-2-cubic-dim_lambda-0.2",
    ],
)
def test_relevant_enumeration_stops_where_rho_turns_positive(model, relevant, kept):
    """No degree tuple of an (i, m) with rho(i, m, 0) > 0 is walked, so
    models whose m_flat (i_flat + i_diamond) reaches 27 and 21 classify in
    well under a second instead of walking (max_deg + 1)^m degree tuples
    per arity m; the d = 4 model is the paper's cubic regime sigma > 2.
    The walk over i ends at the first rho(i, 0, 0) > 0 and the walk over m
    at the first rho(i, m, 0) > 0, so the desk model at dim_lambda 1e-4
    (i_flat + i_diamond = 7501, m_flat = 3) does not walk its 84 million
    pairs (i, m), on which flowpde renorm spent 40 s.  At sigma = d (dim
    Phi = 0) rho does not grow with m, and the d = 2 model walks m up to
    33: its lists come from sorted multisets, not the 2^m degree tuples
    that took over 49 s.  Every index kept has rho <= 0."""
    start = time.perf_counter()
    indices = model.relevant_indices()
    filtered = relevant_filtered(model)
    assert time.perf_counter() - start < 1.0
    assert len(indices) == relevant and len(filtered) == kept
    assert all(model.rho(*key) <= 0 for key in indices)
    assert set(filtered) <= set(indices)


def _product_index_lists(model, m, total_deg):
    """The lists of m multi-indices of total degree total_deg in the order
    in which the product over degree tuples and over each slot's
    multi-indices first yields them sorted: the walk the multiset
    enumeration replaced, kept as its reference."""
    max_deg = int(np.ceil(model.sigma)) - 1
    seen = {}
    for degs in itertools.product(range(max_deg + 1), repeat=m):
        if sum(degs) == total_deg:
            slots = [list(model._spatial_indices_of_degree(dg)) for dg in degs]
            for combo in itertools.product(*slots):
                seen.setdefault(tuple(sorted(combo)), None)
    return list(seen)


@pytest.mark.parametrize("d, sigma, m_max", [(1, 1.0, 8), (2, 1.5, 8), (2, 2.0, 8), (3, 2.0, 7), (3, 3.0, 5)])
def test_multiset_index_lists_equal_the_degree_tuple_product_in_order(d, sigma, m_max):
    """Each (m, degree) list holds each multiset once, in the product's
    first-appearance order (ct.json and scheme keys follow it), on every
    arity up to m_max, where the product still walks in a moment."""
    model = ModelSpec(d=d, sigma=sigma, dim_lambda=0.5, lam=0.3, monomials=(Monomial(1, 3, 0, -1.0),))
    max_deg = int(np.ceil(sigma)) - 1
    for m in range(m_max + 1):
        for total in range(max_deg * m + 1):
            lists = list(model._index_lists(m, total))
            assert len(set(lists)) == len(lists)
            assert lists == _product_index_lists(model, m, total), (m, total)


def test_relevant_filtered_is_cached_per_classification(desk_model):
    """The set is cached on (d, sigma, dim_lambda, symmetry, monomials):
    another noise or coupling shares it, another symmetry or monomial gets
    its own, and each call returns a list of its own."""
    other_noise = replace(desk_model, lam=2.0, noise=desk_model.noise.with_nu(0.05))
    assert relevant_filtered(other_noise) == relevant_filtered(desk_model) == [(1, 1, ((0,),))]
    unfiltered = replace(desk_model, symmetry="none")
    assert relevant_filtered(unfiltered) == unfiltered.relevant_indices()
    assert len(relevant_filtered(unfiltered)) > 1
    # phi^4_3 with a linear force reaches arity 1 only: no (1, 3) key
    cubic = preset("phi4_3d")
    linear = replace(cubic, monomials=(Monomial(i=1, m=1, a=0, base=-1.0),))
    zero = (0, 0, 0)
    assert (1, 3, (zero, zero, zero)) in relevant_filtered(cubic)
    assert relevant_filtered(linear) == [(1, 1, (zero,)), (2, 1, (zero,))]
    first = relevant_filtered(desk_model)
    first.append((9, 9, ()))
    first[0] = None
    assert relevant_filtered(desk_model) == [(1, 1, ((0,),))]


def test_phi4_3d_classification():
    model = preset("phi4_3d")
    # the classical phi^4_3 counterterm structure: mass at orders 1 and 2
    keys = set(relevant_filtered(model))
    assert (1, 1, ((0, 0, 0),)) in keys
    assert (2, 1, ((0, 0, 0),)) in keys


def test_semilinearity_guard():
    with pytest.raises(ValidationFault, match="semilinearity"):
        ModelSpec(
            d=1,
            sigma=0.5,
            dim_lambda=0.3,
            lam=1.0,
            monomials=(Monomial(1, 1, ((1,),), 1.0),),
        )


def test_renorm_scheme_rejects_foreign_keys(desk_model):
    with pytest.raises(ValidationFault, match="non-relevant"):
        RenormScheme.for_model(desk_model, {(5, 5, ((0,),)): 1.0})


def test_renorm_scheme_covers_relevant(desk_model):
    scheme = RenormScheme.for_model(desk_model, {(1, 1, ((0,),)): 0.4})
    d = scheme.as_dict()
    assert set(d) == set(relevant_filtered(desk_model))
    assert d[(1, 1, ((0,),))] == 0.4


def test_coefficient_value_scaling(desk_model):
    cubic = desk_model.monomials[0]
    rho = desk_model.rho(cubic.i, cubic.m, cubic.a)
    assert rho > 0
    v1 = coefficient_value(desk_model, cubic, 0.1)
    v2 = coefficient_value(desk_model, cubic, 0.05)
    # irrelevant coefficients vanish like [nu]^rho as nu -> 0
    ratio = (0.05 ** (1 / desk_model.sigma) / 0.1 ** (1 / desk_model.sigma)) ** rho
    assert v2 / v1 == pytest.approx(ratio, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(0, 7))
def test_spatial_derivative_exact_on_modes(order, mode):
    spec = LatticeSpec(1, 32, 0.1, 0.0, 0.5, 0.5)
    x = spec.coords()[0]
    force = CompiledForce(1.0, {}, {(order,): derivative_multiplier(spec, (order,))})
    g = force.monomial([np.sin(mode * x)], ((order,),))
    phase = np.sin(mode * x + order * np.pi / 2.0)
    np.testing.assert_allclose(g, float(mode) ** order * phase, atol=1e-10)


@pytest.mark.parametrize("a", [((1, 0), (0, 1)), ((1, 0),)])
def test_d2_derivative_force_equals_full_grid_reference(a, rng):
    """A d = 2, sigma = 2 force with odd derivatives along the non-last axis
    equals its full-grid complex reference, c (-1)^|a| lambda times the
    product over q of Re(ifftn(M_q fftn phi)) with M_q = prod_j (i k_j)^a_qj,
    to 1e-13 of its largest value.  The full multiplier cut to the rfft half
    without its Hermitian part, nonzero on the Nyquist row k_0 = -n/2,
    misses it by O(1)."""
    spec = LatticeSpec(2, 16, 0.1, 0.0, 0.5, 2.0)
    phi = rng.standard_normal((3, *spec.space_shape()))  # three slices of a window
    k, axes = spec.freq_grids(), (-2, -1)
    full = {aq: np.prod([(1j * kj) ** deg for kj, deg in zip(k, aq)], axis=0) for aq in a}
    ref = 1.3 * (-1.0) ** sum(map(sum, a)) * 0.8
    for aq in a:
        ref = ref * np.fft.ifftn(full[aq] * np.fft.fftn(phi, axes=axes), axes=axes).real
    table = {(1, len(a), a): 1.3}
    force = CompiledForce(0.8, table, {aq: derivative_multiplier(spec, aq) for aq in a})
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(force(phi) - ref)) <= 1e-13 * scale
    naive = CompiledForce(0.8, table, {aq: m[..., : spec.n // 2 + 1] for aq, m in full.items()})
    assert np.max(np.abs(naive(phi) - ref)) > 0.1 * scale


def test_evaluate_force_polynomial(desk_model, desk_spec, rng):
    phi = Field(desk_spec, rng.standard_normal((desk_spec.nt, desk_spec.n)), SPACE_TIME)
    xi = Field(desk_spec, rng.standard_normal((desk_spec.nt, desk_spec.n)), SPACE_TIME)
    ct = {(1, 1, ((0,),)): 0.7}
    nu = 0.1
    out = evaluate_force(desk_model, ct, phi, xi, nu)
    cubic_coef = coefficient_value(desk_model, desk_model.monomials[0], nu)
    lam = desk_model.lam
    expected = xi.data + lam * cubic_coef * phi.data**3 + lam * 0.7 * phi.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def _buffered_forces(spec):
    """Forces of one shape with a derivative term, a constant term (m = 0)
    and plain terms of arity 1 and 3: alone, and stacked two rows a force."""
    mults = {(1,): derivative_multiplier(spec, (1,))}
    tables = [
        {(1, 2, ((0,), (1,))): c, (2, 0, ()): -0.7 * c, (1, 1, ((0,),)): 0.4, (1, 3, ((0,),) * 3): -c}
        for c in (1.3, 0.6)
    ]
    forces = [CompiledForce(0.8, table, mults) for table in tables]
    return forces[0], stack_forces(forces, 2, spec.d)


def test_buffered_force_equals_the_allocating_force(desk_spec, rng):
    """A call that writes into `out` through `work` equals the plain call
    bit for bit, on one slice, on a stack and on a stack cut by take(); the
    plain terms equal math.prod's product times their scalar, the order of
    the force before it took buffers."""
    one, stacked = _buffered_forces(desk_spec)
    assert [a is None for _, _, a in one.terms] == [False, True, True, True]
    assert [m for _, m, _ in one.terms] == [2, 0, 1, 3]
    cases = [
        (one, rng.standard_normal(desk_spec.n)),
        (stacked, rng.standard_normal((4, desk_spec.n))),
        (stacked.take(np.array([True, False, True, True])), rng.standard_normal((3, desk_spec.n))),
    ]
    for force, phi in cases:
        plain = force(phi)
        out, work = np.full_like(phi, np.nan), np.full_like(phi, np.nan)
        buffered = force(phi, out=out, work=work)
        assert buffered is out
        assert not np.shares_memory(plain, phi)
        np.testing.assert_array_equal(buffered, plain)
        before = np.zeros_like(phi)
        for scale, m, a in force.terms:
            before += scale * (math.prod([phi] * m) if a is None else force.monomial([phi] * m, a))
        np.testing.assert_array_equal(plain, before)


def test_evaluate_force_missing_relevant_faults(desk_model, desk_spec):
    phi = Field(desk_spec, np.zeros((desk_spec.nt, desk_spec.n)), SPACE_TIME)
    with pytest.raises(ValidationFault, match="missing relevant"):
        evaluate_force(desk_model, None, phi, None, 0.1)


def test_preset_unknown_name():
    with pytest.raises(ValidationFault):
        preset("phi6_9d")


def test_stray_counterterm_key_faults_on_both_force_paths(desk_model, desk_spec, desk_noise):
    """A counterterm for an index that is neither relevant after the
    symmetry filter nor a declared monomial is rejected by the direct force
    and by the pathwise hierarchy alike (the rule of RenormScheme.for_model)."""
    from flowpde.flow import expand_pathwise
    from flowpde.noise import sample_macroscopic_noise

    stray = (1, 2, ((0,), (0,)))  # even arity: removed by parity_z2
    ct = {(1, 1, ((0,),)): 0.0, stray: 0.5}
    phi = Field(desk_spec, np.zeros(desk_spec.n), SPACE_ONLY)
    with pytest.raises(ValidationFault, match="non-relevant"):
        evaluate_force(desk_model, ct, phi, None, 0.1)
    xi = sample_macroscopic_noise(desk_noise, desk_spec, 0)
    with pytest.raises(ValidationFault, match="non-relevant"):
        expand_pathwise(desk_model, ct, xi, 1)
    with pytest.raises(ValidationFault, match="non-relevant"):
        RenormScheme.for_model(desk_model, {stray: 0.5})
