from dataclasses import replace

import numpy as np
import pytest

from flowpde import harness
from flowpde.errors import ValidationFault
from flowpde.harness import (
    ExperimentPlan,
    Observable,
    make_probe_variant,
    run_irrelevance_probe,
    run_universality,
)
from flowpde.model import Monomial, preset
from flowpde.lattice import SPACE_ONLY, Field
from flowpde.noise import NoiseModel, sample_macroscopic_noise
from flowpde.solver import STATUS_BLEW_UP, SolveConfig, solve_decomposed, solve_with_patching


def _variant(family, nu=0.2, seed=7):
    nm = NoiseModel("mollified_white", nu, seed, family, resolution_policy="spectral")
    return (family, preset("phi4_desk", lam=0.3, noise=nm))


def _small_plan(**kw):
    args = dict(
        variants=(_variant("bump"), _variant("skew")),
        nu_schedule=(0.2, 0.1),
        samples=4,
        n=64,
        dt=0.01,
        t_max=0.25,
        observables=(Observable("slice_moment", p=2, time=0.25),),
        solve=SolveConfig(scheme="etd1", max_horizon=0.25, t_local=0.25),
        history=2.0,
        flow_j_levels=4,
        flow_nodes_per_octave=4,
    )
    args.update(kw)
    return ExperimentPlan(**args)


def test_observable_validation_and_names():
    with pytest.raises(ValidationFault):
        Observable("median")
    with pytest.raises(ValidationFault):
        Observable("slice_moment", p=7)
    assert Observable("slice_moment", p=2, time=0.5).name == "moment2@t0.5"
    assert Observable("slice_pairing", time=0.25).name == "pairing@t0.25"


def test_plan_validation():
    with pytest.raises(ValidationFault, match="decreasing"):
        _small_plan(nu_schedule=(0.1, 0.2))
    with pytest.raises(ValidationFault, match="horizon"):
        _small_plan(observables=(Observable("slice_moment", p=2, time=0.9),))
    bad = preset("phi4_desk", lam=0.3, noise=NoiseModel("mollified_white", 0.2, 7))
    from dataclasses import replace

    bad = replace(bad, dim_lambda=0.5)
    with pytest.raises(ValidationFault, match="share"):
        _small_plan(variants=(_variant("bump"), ("other", bad)))


def test_universality_report_structure():
    plan = _small_plan()
    report = run_universality(plan)
    labels = {"bump", "skew"}
    nus = {0.2, 0.1}
    assert {k[0] for k in report.cells} == labels
    assert {k[1] for k in report.cells} == nus
    for cell in report.cells.values():
        assert np.isfinite(cell["estimate"])
        assert cell["samples"] == 4
    # gaps exist for every nu and the drift list has one entry per nu step
    assert {nu for (_, nu) in report.gaps} == nus
    for seq in report.drifts.values():
        assert len(seq) == 1
        nu_hi, nu_lo, drift, se = seq[0]
        assert (nu_hi, nu_lo) == (0.2, 0.1)
        assert np.isfinite(drift) and se >= 0
    assert report.verdict["label"] in ("universal", "distinct")
    rows = report.rows()
    assert len(rows) == 4
    assert {r["variant"] for r in rows} == labels


def test_universality_is_reproducible():
    plan = _small_plan(samples=2)
    a = run_universality(plan)
    b = run_universality(plan)
    for key in a.cells:
        assert a.cells[key]["estimate"] == b.cells[key]["estimate"]


def test_counterterm_override_changes_cells():
    plan = _small_plan(samples=2)
    forced = _small_plan(
        samples=2,
        counterterm_overrides=(
            ("bump", (((1, 1, ((0,),)), 0.0),)),
            ("skew", (((1, 1, ((0,),)), 0.0),)),
        ),
    )
    a = run_universality(plan)
    b = run_universality(forced)
    diffs = [
        abs(a.cells[k]["estimate"] - b.cells[k]["estimate"]) for k in a.cells
    ]
    assert max(diffs) > 0.0


def test_irrelevance_probe_rejects_relevant_monomial():
    label, base = _variant("bump")
    probe = make_probe_variant(base, Monomial(1, 1, 0, base=0.5), "probe")
    plan = _small_plan(variants=((label, base), probe))
    with pytest.raises(ValidationFault, match="not irrelevant"):
        run_irrelevance_probe(plan)


@pytest.mark.parametrize(
    "use_shift, scheme, t_local, radius",
    [(True, "etd1", 0.25, 11.0), (False, "etd_rk2", 0.07, 9.8)],
    ids=["shift-etd1", "direct-etd_rk2-windows"],
)
def test_stacked_cell_equals_per_sample_loop(monkeypatch, use_shift, scheme, t_local, radius):
    """A cell solved in stacks (of two here, so five samples make three
    blocks) gives the values and blow-up count of the per-sample loop, bit
    for bit; the radii make some samples blow up and others complete."""
    monkeypatch.setattr(harness, "STACK_SIZE", 2)
    cfg = SolveConfig(scheme=scheme, max_horizon=0.25, t_local=t_local, blow_up_radius=radius)
    plan = _small_plan(samples=5, use_shift=use_shift, solve=cfg)
    label, model = plan.variants[0]
    nu = 0.1
    values, blowups = harness._run_cell(plan, label, model, nu)

    model = replace(model, noise=model.noise.with_nu(nu))
    cterms = harness._cell_counterterms(plan, label, model, nu)
    spec = plan.lattice()
    psi = harness._smearing_function(spec)
    zero = Field(spec, np.zeros(spec.space_shape()), SPACE_ONLY)
    expected, expected_blowups = [], 0
    for s in range(plan.samples):
        noise = sample_macroscopic_noise(model.noise, spec, s, history=plan.history)
        solve = solve_decomposed if use_shift else solve_with_patching
        res = solve(model, cterms, noise, zero, plan.solve)
        expected_blowups += res.status == STATUS_BLEW_UP
        expected.append(harness._observable_value(plan.observables[0], res, psi))
    assert 0 < expected_blowups < plan.samples
    assert blowups == expected_blowups
    np.testing.assert_array_equal(values[plan.observables[0].name], expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verdict_reports_compared_variants_and_dropped_samples():
    plan = _small_plan(samples=3, solve=SolveConfig(scheme="etd1", max_horizon=0.25, blow_up_radius=11.0))
    report = run_universality(plan)
    # one sample is finite in both variants: no standard error, and the
    # verdict says so instead of failing silently on a NaN
    final = report.gaps[("moment2@t0.25", 0.1)]
    assert final["samples"] == 1 and np.isnan(final["se"]) and np.isfinite(final["gap"])
    assert report.verdict["label"] == "distinct"
    assert "1 sample(s) finite in both variants" in report.verdict["observables"]["moment2@t0.25"]["reason"]
    assert report.verdict["compared"] == ["bump", "skew"]
    rows = report.verdict["cells"]
    assert len(rows) == len(report.cells) == 4
    for row in rows:
        cell = report.cells[(row["variant"], row["nu"], row["observable"])]
        assert row["kept"] == cell["samples"]
        assert row["kept"] + row["dropped"] == 3
    assert sum(row["dropped"] for row in rows) > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mean_se_is_nan_without_enough_samples():
    mean, se = harness._mean_se(np.array([]))
    assert np.isnan(mean) and np.isnan(se)
    mean, se = harness._mean_se(np.array([2.5]))
    assert mean == 2.5 and np.isnan(se)
    mean, se = harness._mean_se(np.array([1.0, 3.0]))
    assert mean == 2.0 and se == pytest.approx(1.0)
