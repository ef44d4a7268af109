from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from flowpde import flow, harness, noise
from flowpde.errors import ValidationFault
from flowpde.harness import (
    ExperimentPlan,
    Observable,
    run_universality,
)
from flowpde.flow import flow_expected
from flowpde.model import RenormScheme, preset, relevant_filtered
from flowpde.lattice import SPACE_ONLY, Field
from flowpde.noise import NoiseModel, sample_macroscopic_noise
from flowpde.solver import STATUS_BLEW_UP, SolveConfig, solve_decomposed, solve_stack, window_slices


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


@pytest.mark.parametrize(
    "use_shift, scheme, t_local, radius",
    [(True, "etd1", 0.25, 11.0), (False, "etd_rk2", 0.07, 9.8)],
    ids=["shift-etd1", "direct-etd_rk2-windows"],
)
def test_stacked_cell_equals_per_sample_loop(monkeypatch, use_shift, scheme, t_local, radius):
    """A cell solved in stacks (of two here, so five samples make three
    blocks) gives the values and blow-up count of the per-sample loop, bit
    for bit: each sample's window taken from the cell's driver on its own
    and solved alone.  The radii make some samples blow up and others
    complete."""
    monkeypatch.setattr(harness, "STACK_SIZE", 2)
    cfg = SolveConfig(scheme=scheme, max_horizon=0.25, t_local=t_local, blow_up_radius=radius)
    plan = _small_plan(samples=5, use_shift=use_shift, solve=cfg)
    [cell] = harness._make_cells(replace(plan, variants=plan.variants[:1], nu_schedule=(0.1,)))
    [(values, blowups)] = harness._run_cells(plan, [cell])

    spec = plan.lattice()
    psi = harness._smearing_function(spec)
    zero = Field(spec, np.zeros(spec.space_shape()), SPACE_ONLY)
    slices = window_slices(cell.driver.spec, spec, plan.solve)
    kind = "shift" if use_shift else "noise"
    expected, expected_blowups = [], 0
    for s in range(plan.samples):
        window = cell.driver.window(cell.driver.spectrum(s), slices)
        res = solve_stack(cell.model, cell.cterms, zero, plan.solve, **{kind: window[None]})[0]
        expected_blowups += res.status == STATUS_BLEW_UP
        expected.append(harness._observable_value(plan.observables[0], res, psi))
    assert 0 < expected_blowups < plan.samples
    assert blowups == expected_blowups
    np.testing.assert_array_equal(values[plan.observables[0].name], expected)


@pytest.mark.parametrize("seeds, spectra", [((7, 7), 2), ((7, 8), 4)], ids=["shared", "distinct"])
def test_cells_share_one_white_spectrum_per_master_seed(monkeypatch, seeds, spectra):
    """Per sample index the white noise is transformed once per distinct
    master seed, and every cell equals its variant's run alone: variants
    with their own seeds never read another's noise."""
    calls = []
    white_spectrum = noise.white_spectrum

    def counted(*args):
        calls.append(args[:2])
        return white_spectrum(*args)

    monkeypatch.setattr(noise, "white_spectrum", counted)
    variants = (_variant("bump", seed=seeds[0]), _variant("skew", seed=seeds[1]))
    plan = _small_plan(variants=variants, samples=2)
    report = run_universality(plan)
    assert len(calls) == spectra == len(set(calls))
    for variant in variants:
        alone = run_universality(replace(plan, variants=(variant,)))
        for key, cell in alone.cells.items():
            assert report.cells[key]["estimate"] == cell["estimate"]
            assert report.cells[key]["se"] == cell["se"]


def _shot_variant():
    nm = NoiseModel("poisson_shot", 1.0, 7, "bump", resolution_policy="spectral")
    return ("shot", preset("phi4_desk", lam=0.3, noise=nm))


def _second_order_variant():
    label, model = _variant("bump")
    return (label, replace(model, dim_lambda=0.1))


@pytest.mark.parametrize(
    "variant, nu_schedule",
    [(_shot_variant(), (1.0, 0.5)), (_second_order_variant(), (0.2, 0.1))],
    ids=["poisson_shot", "i_rhd-2"],
)
def test_general_path_cells_equal_the_per_sample_pipeline(variant, nu_schedule):
    """Shot noise and a shift of order i_rhd >= 1 keep the general path:
    each sample's noise sampled, its shift built and its window cut on its
    own, giving the values of solve_decomposed bit for bit."""
    label, model = variant
    # forced counterterms: no Wick sums for shot noise, and the flow stops
    # short of the relevant orders i >= 3 that dim_lambda = 0.1 brings
    forced = tuple((key, 0.0) for key in relevant_filtered(model))
    plan = _small_plan(
        variants=(variant,),
        nu_schedule=nu_schedule,
        samples=2,
        counterterm_overrides=((label, forced),),
    )
    assert plan.use_shift and (model.noise.kind == "poisson_shot" or model.i_rhd == 2)
    spec = plan.lattice()
    psi = harness._smearing_function(spec)
    zero = Field(spec, np.zeros(spec.space_shape()), SPACE_ONLY)
    for cell in harness._make_cells(plan):
        assert cell.driver is None
        [(values, _)] = harness._run_cells(plan, [cell])
        expected = []
        for s in range(plan.samples):
            xi = sample_macroscopic_noise(cell.model.noise, spec, s, history=plan.history)
            res = solve_decomposed(cell.model, cell.cterms, xi, zero, plan.solve)
            expected.append(harness._observable_value(plan.observables[0], res, psi))
        np.testing.assert_array_equal(values[plan.observables[0].name], expected)


def _record_flow_nodes(monkeypatch) -> list:
    """(family, nu, mu) of every flow node that runs from here on."""
    calls = []
    flow_node = flow.WickCalculator.flow_node

    def recorded(self, mu):
        calls.append((self.model.family, self.model.nu, mu))
        return flow_node(self, mu)

    monkeypatch.setattr(flow.WickCalculator, "flow_node", recorded)
    return calls


@pytest.mark.parametrize("use_shift", [True, False], ids=["shift", "direct"])
def test_short_history_faults_on_the_shift_path_only(monkeypatch, use_shift):
    """A history too short for the support of G - G_1 is a ValidationFault
    on the shift path, raised before any flow node runs; the direct path
    needs no history."""
    calls = _record_flow_nodes(monkeypatch)
    plan = _small_plan(samples=1, history=1.0, use_shift=use_shift)
    if use_shift:
        with pytest.raises(ValidationFault, match="too short"):
            run_universality(plan)
        assert calls == []
    else:
        assert run_universality(plan).verdict["label"] in ("universal", "distinct")


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


@pytest.mark.parametrize(
    "key, value",
    [("samples", 0), ("samples", -3), ("flow_j_levels", 0), ("flow_j_levels", -1),
     ("flow_nodes_per_octave", 0), ("flow_nodes_per_octave", -2)],
)
def test_plan_rejects_sizes_below_one(key, value):
    with pytest.raises(ValidationFault, match=f"plan.{key} must be at least 1, got {value}"):
        _small_plan(**{key: value})


def test_stacked_flow_equals_each_cells_own_flow(monkeypatch):
    """The six cells of a 2 family x 3 nu plan, integrated as one flow_stack,
    get the counterterms of each cell's own flow_expected exactly.  At each
    node both kernel spectra are built once per distinct padded length, and
    at some nodes the cells' lengths differ (the taps' length depends on nu)."""
    plan = _small_plan(nu_schedule=(0.2, 0.1, 0.05))
    built = []
    rfft = flow.KernelSpectra._rfft

    def recorded(self, mult, lo, n_pad):
        built.append((self._mu, n_pad))
        return rfft(self, mult, lo, n_pad)

    monkeypatch.setattr(flow.KernelSpectra, "_rfft", recorded)
    cells = harness._make_cells(plan)
    monkeypatch.undo()
    assert len(cells) == 6
    nodes, _ = flow._octave_nodes(plan.flow_j_levels, plan.flow_nodes_per_octave)
    pads = {mu: {n for m, n in built if m == mu} for mu in nodes}
    per_node = Counter(mu for mu, _ in built)
    assert all(per_node[mu] == 2 * len(pads[mu]) for mu in nodes)
    assert max(len(p) for p in pads.values()) > 1
    for cell in cells:
        scheme = RenormScheme.for_model(cell.model, dict(plan.scheme_values))
        _, ct = flow_expected(
            cell.model,
            plan.lattice(),
            cell.nu,
            scheme,
            j_levels=plan.flow_j_levels,
            nodes_per_octave=plan.flow_nodes_per_octave,
        )
        assert cell.cterms == ct.as_dict()


def test_override_cells_run_no_flow(monkeypatch):
    calls = _record_flow_nodes(monkeypatch)
    zero = (((1, 1, ((0,),)), 0.0),)
    plan = _small_plan(counterterm_overrides=(("bump", zero),))
    cells = harness._make_cells(plan)
    assert {family for family, _, _ in calls} == {"skew"}
    assert [c.cterms for c in cells if c.label == "bump"] == [dict(zero)] * 2
    calls.clear()
    harness._make_cells(replace(plan, counterterm_overrides=(("bump", zero), ("skew", zero))))
    assert calls == []
