from dataclasses import replace

import numpy as np
import pytest

from flowpde import flow, harness, noise, solver
from flowpde.errors import ValidationFault
from flowpde.harness import (
    ExperimentPlan,
    Observable,
    run_universality,
)
from flowpde.flow import flow_expected
from flowpde.model import RenormScheme, preset, relevant_filtered
from flowpde.lattice import SPACE_ONLY, Field, padded_length, rfft_space
from flowpde.noise import NoiseModel, sample_macroscopic_noise
from flowpde.solver import STATUS_BLEW_UP, SolveConfig, solve_decomposed, solve_stack, solve_window


def _variant(family, nu=0.2, seed=7, lam=0.3, base=-1.0):
    nm = NoiseModel("mollified_white", nu, seed, family, resolution_policy="spectral")
    return (family, preset("phi4_desk", lam=lam, base=base, noise=nm))


# a cubic of the growing sign at strong coupling: its remainders peak at
# norms 3.8-6.2 by t = 0.25 with etd1 in one window and 3.7-11.4 with
# etd_rk2 in windows of 0.07 (bump, nu = 0.1, seed 7, samples 0-4), so a
# radius of 5 stops some samples mid-run and lets others complete
UNSTABLE = dict(lam=10.0, base=1.0)


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
    with pytest.raises(ValidationFault, match="plan.observables"):
        _small_plan(observables=())
    # the history sets how far back W is drawn and where a driver's tail starts
    for history in (float("nan"), float("inf"), -0.5):
        with pytest.raises(ValidationFault, match="plan.history must be finite and non-negative"):
            _small_plan(history=history)
    assert _small_plan(history=0.0).history == 0.0
    # a negative time would index the trajectory from its end
    with pytest.raises(ValidationFault, match="horizon"):
        _small_plan(observables=(Observable("slice_moment", p=2, time=-0.1),))
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
    "use_shift, scheme, t_local, radius, strength",
    [(True, "etd1", 0.25, 5.0, UNSTABLE), (False, "etd_rk2", 0.07, 5.0, UNSTABLE)],
    ids=["shift-etd1", "direct-etd_rk2-windows"],
)
def test_stacked_cell_equals_per_sample_loop(monkeypatch, use_shift, scheme, t_local, radius, strength):
    """A cell solved in stacks (of two here, so five samples make three
    blocks) gives the values and blow-up count of the per-sample loop, bit
    for bit: each sample's noise window taken from the cell's driver on its
    own and solved alone.  A shift plan at i_rhd = 0 runs the direct solve
    too.  The radii make some samples blow up after t = 0 and others
    complete."""
    monkeypatch.setattr(harness, "STACK_SIZE", 2)
    cfg = SolveConfig(scheme=scheme, max_horizon=0.25, t_local=t_local, blow_up_radius=radius)
    variants = (_variant("bump", **strength),)
    plan = _small_plan(samples=5, use_shift=use_shift, solve=cfg, variants=variants)
    [cell] = harness._make_cells(replace(plan, variants=plan.variants[:1], nu_schedule=(0.1,)))
    [(values, blowups)] = harness._run_cells(plan, [cell])

    spec = plan.lattice()
    psi = harness._smearing_function(spec)
    zero = Field(spec, np.zeros(spec.space_shape()), SPACE_ONLY)
    expected, expected_blowups = [], 0
    for s in range(plan.samples):
        window = cell.driver.window(cell.driver.spectrum(s))
        res = solve_stack(cell.model, cell.cterms, zero, plan.solve, noise=window[None])[0]
        assert res.breve_T > plan.dt
        expected_blowups += res.status == STATUS_BLEW_UP
        expected.append(harness._observable_value(plan.observables[0], res, psi))
    assert 0 < expected_blowups < plan.samples
    assert blowups == expected_blowups
    np.testing.assert_array_equal(values[plan.observables[0].name], expected)


# criterion 7's lattice, where the taps of nu = 0.2 and of nu <= 0.1 would
# pad the time FFT to different lengths if each cell sized its own
CRITERION_7_LATTICE = dict(n=256, dt=0.0025, t_max=0.5, nu_schedule=(0.2, 0.1, 0.05))


@pytest.mark.parametrize(
    "seeds, spectra, lattice, rows",
    [
        ((7, 7), 2, {}, (190, 226)),
        ((7, 8), 4, {}, (190, 226)),
        ((7, 7), 2, CRITERION_7_LATTICE, (760, 901)),
    ],
    ids=["shared", "distinct", "shared-criterion-7-lattice"],
)
def test_cells_share_one_white_spectrum_per_master_seed(monkeypatch, seeds, spectra, lattice, rows):
    """Per sample index the white noise is transformed once per distinct
    master seed, whatever the cells' nu, and every cell equals its
    variant's run alone: variants with their own seeds never read another's
    noise.  Each transform covers only the rows of W the solve window reads
    at the taps of nu = 0.2: the window's 26 or 101 slices and the 10 or 40
    before them."""
    calls = []
    white_spectrum = noise.white_spectrum

    def counted(*args):
        calls.append(args[:2])
        assert args[4] == rows
        return white_spectrum(*args)

    monkeypatch.setattr(noise, "white_spectrum", counted)
    variants = (_variant("bump", seed=seeds[0]), _variant("skew", seed=seeds[1]))
    plan = _small_plan(variants=variants, samples=2, **lattice)
    report = run_universality(plan)
    assert len(calls) == spectra == len(set(calls))
    for variant in variants:
        alone = run_universality(replace(plan, variants=(variant,)))
        for key, cell in alone.cells.items():
            assert report.cells[key]["estimate"] == cell["estimate"]
            assert report.cells[key]["se"] == cell["se"]


@pytest.mark.parametrize("history", [2.0, 0.05], ids=["history-2", "history-shorter-than-taps"])
def test_tail_drives_equal_the_full_window_drives(history):
    """The drive each of criterion 7's cells solves with, from its driver's
    half spectrum of the tail of W, equals the drive of the full-window
    noise of sample_macroscopic_noise after solve_stack's driver stage, to
    1e-13 of its size.  At history 0.05, shorter than the taps of nu = 0.2
    reach, the tail starts at the window start."""
    forced = (((1, 1, ((0,),)), 0.0),)
    plan = _small_plan(
        variants=(_variant("bump"), _variant("skew")),
        history=history,
        solve=SolveConfig(scheme="etd1", max_horizon=0.5, t_local=0.5),
        observables=(Observable("slice_moment", p=2, time=0.5),),
        counterterm_overrides=(("bump", forced), ("skew", forced)),
        **CRITERION_7_LATTICE,
    )
    spec = plan.lattice()
    cells = harness._make_cells(plan)
    assert len(cells) == 6
    for cell in cells:
        driver = cell.driver
        assert driver.rows == ((760, 1001) if history == 2.0 else (0, 221))
        for s in (0, 3):
            tail = solver._driver_stage(spec, driver.window(driver.spectrum(s))[None], None)[0]
            xi = sample_macroscopic_noise(cell.model.noise, spec, s, history=history)
            window = rfft_space(solve_window(xi, spec, plan.solve), spec.d)
            full = solver._driver_stage(spec, window[None], None)[0]
            assert tail.shape == full.shape == (201, spec.n)
            assert np.max(np.abs(full)) > 1.0
            assert np.max(np.abs(tail - full)) <= 1e-13 * np.max(np.abs(full))


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
    each sample's noise sampled, its shift built where one is (i_rhd >= 1;
    the shot plan has i_rhd = 0 and runs the direct solve) and its window
    cut on its own, giving the values of solve_decomposed bit for bit."""
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
    """(family, nu, mu) of every cell at every flow node that runs from here
    on (the wick_sums calls with the dot kernel)."""
    calls = []
    wick_sums = flow.wick_sums

    def recorded(wicks, mu, dot):
        if dot:
            calls.extend((wick.model.family, wick.model.nu, mu) for wick in wicks)
        return wick_sums(wicks, mu, dot)

    monkeypatch.setattr(flow, "wick_sums", recorded)
    return calls


@pytest.mark.parametrize(
    "use_shift, second_order",
    [(True, True), (False, True), (True, False)],
    ids=["shift", "direct", "shift-i_rhd-0"],
)
def test_short_history_faults_on_the_shift_path_only(monkeypatch, use_shift, second_order):
    """A history too short for the support of G - G_1 is a ValidationFault
    where a shift is built (i_rhd = 2 here), raised before the flow runs:
    the flow's own fault for this plan, relevant orders i >= 3 out of reach,
    would come next.  The direct path needs no history, nor does a shift
    plan at i_rhd = 0, which runs the direct solve."""
    calls = _record_flow_nodes(monkeypatch)
    label, model = _second_order_variant() if second_order else _variant("bump")
    plan = _small_plan(samples=1, history=1.0, use_shift=use_shift, variants=((label, model),))
    if use_shift and second_order:
        with pytest.raises(ValidationFault, match="too short"):
            run_universality(plan)
        assert calls == []
        return
    if second_order:
        forced = tuple((key, 0.0) for key in relevant_filtered(model))
        plan = replace(plan, counterterm_overrides=((label, forced),))
    report = run_universality(plan)
    assert all(np.isfinite(cell["estimate"]) for cell in report.cells.values())


def test_shift_plan_at_order_zero_is_the_direct_plan():
    """At i_rhd = 0 no shift is built: use_shift True and False give
    identical reports."""
    plan = _small_plan(samples=2)
    assert plan.use_shift and all(model.i_rhd == 0 for _, model in plan.variants)
    shift = run_universality(plan)
    direct = run_universality(_small_plan(samples=2, use_shift=False))
    assert shift.cells == direct.cells
    assert shift.gaps == direct.gaps
    assert shift.drifts == direct.drifts
    assert shift.verdict == direct.verdict


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verdict_reports_compared_variants_and_dropped_samples():
    variants = (_variant("bump", **UNSTABLE), _variant("skew", **UNSTABLE))
    cfg = SolveConfig(scheme="etd1", max_horizon=0.25, blow_up_radius=4.55)
    plan = _small_plan(samples=3, solve=cfg, variants=variants)
    report = run_universality(plan)
    # one sample (of peak norm 4.3) is finite in both variants: no standard
    # error, and the verdict says so instead of failing silently on a NaN
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
    get the counterterms of each cell's own flow_expected to round-off.  At
    each node one kernel-spectrum pair serves all cells, at the longest of
    their own pads; at some nodes those pads differ (the taps' length
    depends on nu), so a stacked cell is summed at a longer pad than its own."""
    plan = _small_plan(nu_schedule=(0.2, 0.1, 0.05))
    built = []
    at = flow.KernelSpectra.at

    def recorded(self, mu, n_pad, dot):
        built.append((mu, n_pad, dot))
        return at(self, mu, n_pad, dot)

    monkeypatch.setattr(flow.KernelSpectra, "at", recorded)
    cells = harness._make_cells(plan)
    monkeypatch.undo()
    assert len(cells) == 6
    nodes, _ = flow._octave_nodes(plan.flow_j_levels, plan.flow_nodes_per_octave)
    spec = plan.lattice()
    wicks = [flow.WickCalculator(spec, cell.model.noise) for cell in cells]
    pads = {mu: {padded_length(np.ceil(2 * mu / spec.dt) + len(w.taps) + 2) for w in wicks} for mu in nodes}
    assert [b for b in built if b[2]] == [(mu, max(pads[mu]), True) for mu in nodes]
    assert [mu for mu, _, dot in built if not dot] == [2.0**-plan.flow_j_levels, 1.0]
    assert max(len(p) for p in pads.values()) > 1
    for cell in cells:
        scheme = RenormScheme.for_model(cell.model, dict(plan.scheme_values))
        _, ct = flow_expected(
            cell.model,
            spec,
            cell.nu,
            scheme,
            j_levels=plan.flow_j_levels,
            nodes_per_octave=plan.flow_nodes_per_octave,
        )
        assert cell.cterms.keys() == ct.entries.keys()
        for key, value in ct.entries.items():
            assert cell.cterms[key] == pytest.approx(value, rel=1e-14, abs=0.0)


def test_override_cells_run_no_flow(monkeypatch):
    calls = _record_flow_nodes(monkeypatch)
    plan = _small_plan()
    harness._make_cells(plan)
    nodes, _ = flow._octave_nodes(plan.flow_j_levels, plan.flow_nodes_per_octave)
    assert len(calls) == len(plan.variants) * len(plan.nu_schedule) * len(nodes)
    calls.clear()
    zero = (((1, 1, ((0,),)), 0.0),)
    plan = replace(plan, counterterm_overrides=(("bump", zero),))
    cells = harness._make_cells(plan)
    assert {family for family, _, _ in calls} == {"skew"}
    assert [c.cterms for c in cells if c.label == "bump"] == [dict(zero)] * 2
    calls.clear()
    harness._make_cells(replace(plan, counterterm_overrides=(("bump", zero), ("skew", zero))))
    assert calls == []
