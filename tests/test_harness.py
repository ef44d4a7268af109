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
from flowpde.lattice import SPACE_ONLY, Field, rfft_space
from flowpde.noise import NoiseModel, sample_macroscopic_noise
from flowpde.solver import STATUS_BLEW_UP, SolveConfig, solve_mild, solve_stack, solve_window


def _variant(family, nu=0.2, seed=7, lam=0.3, base=-1.0):
    nm = NoiseModel("mollified_white", nu, seed, family, resolution_policy="spectral")
    return (family, preset("phi4_desk", lam=lam, base=base, noise=nm))


# a cubic of the growing sign at strong coupling: its remainders peak at
# norms 4.6-5.6 by t = 0.25 with etd1 in one window and with etd_rk2 in
# windows of 0.07, and one sample runs away (bump, nu = 0.1, seed 7,
# samples 0-4), so a radius of 5 stops some samples mid-run and lets
# others complete
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
    with pytest.raises(ValidationFault, match="plan.nu_schedule"):
        _small_plan(nu_schedule=())
    # a second cell of one label would overwrite the first in the report
    with pytest.raises(ValidationFault, match="label 'bump' more than once"):
        _small_plan(variants=(_variant("bump"), _variant("skew"), _variant("bump")))
    # the history sets how far back W is drawn and where a driver's tail starts
    for history in (float("nan"), float("inf"), -0.5):
        with pytest.raises(ValidationFault, match="plan.history must be finite and non-negative"):
            _small_plan(history=history)
    assert _small_plan(history=0.0).history == 0.0
    # an observable time off the dt grid would be read at the nearest slice
    with pytest.raises(ValidationFault, match="observable time 0.123 must be an integer multiple of dt"):
        _small_plan(observables=(Observable("slice_moment", p=2, time=0.123),))
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


def _assert_cells_equal_their_per_sample_solves(plan, cells, runs):
    """Each cell's values and blow-up count equal those of its samples'
    noise windows, taken from the cell's driver one by one and solved
    alone, bit for bit; every solve runs past t = 0.  Returns the blow-ups
    of all cells."""
    spec = plan.lattice()
    psi = harness._smearing_function(spec)
    zero = Field(spec, np.zeros(spec.space_shape()), SPACE_ONLY)
    total = 0
    for cell, (values, blowups) in zip(cells, runs):
        results = []
        for s in range(plan.samples):
            window = cell.driver.window(cell.driver.spectrum(s))
            results.append(solve_stack([(cell.model, cell.cterms)], zero, plan.solve, noise=window[None])[0])
        assert all(res.breve_T > plan.dt for res in results)
        assert blowups == sum(res.status == STATUS_BLEW_UP for res in results)
        expected = [harness._observable_value(plan.observables[0], res, psi) for res in results]
        np.testing.assert_array_equal(values[plan.observables[0].name], expected)
        total += blowups
    return total


@pytest.mark.parametrize(
    "scheme, t_local, radius, strength",
    [("etd1", 0.25, 5.0, UNSTABLE), ("etd_rk2", 0.07, 5.0, UNSTABLE)],
    # the etd1 case ran a shift plan while the shift was a solve path; its
    # id is kept so the case keeps its name
    ids=["shift-etd1", "direct-etd_rk2-windows"],
)
def test_stacked_cell_equals_per_sample_loop(monkeypatch, scheme, t_local, radius, strength):
    """A cell solved in stacks (of two here, so five samples make three
    blocks) gives the values and blow-up count of the per-sample loop, bit
    for bit: each sample's noise window taken from the cell's driver on its
    own and solved alone.  The radii make some samples blow up after t = 0
    and others complete."""
    monkeypatch.setattr(harness, "STACK_SIZE", 2)
    cfg = SolveConfig(scheme=scheme, max_horizon=0.25, t_local=t_local, blow_up_radius=radius)
    variants = (_variant("bump", **strength),)
    plan = _small_plan(samples=5, solve=cfg, variants=variants)
    [cell] = harness._make_cells(replace(plan, variants=plan.variants[:1], nu_schedule=(0.1,)))
    runs = harness._run_cells(plan, [cell])
    assert 0 < _assert_cells_equal_their_per_sample_solves(plan, [cell], runs) < plan.samples


def test_first_order_stationary_plan_runs_the_direct_solve():
    """phi4_desk at dim_lambda 0.25 has stationary order i_rhd = 1 and the
    relevant indices (1, 1, 0) and (2, 1, 0); the flow supplies both
    counterterms, the second through the sunset integrals.  Every cell is
    driven by its SpectralDriver, as at i_rhd = 0, and its values equal
    those of its samples solved one by one, bit for bit."""
    variants = tuple((label, replace(model, dim_lambda=0.25)) for label, model in _small_plan().variants)
    plan = _small_plan(samples=3, variants=variants)
    assert all(model.i_rhd == 1 for _, model in plan.variants)
    cells = harness._make_cells(plan)
    assert len(cells) == 4
    for cell in cells:
        assert isinstance(cell.driver, noise.SpectralDriver)
        assert set(cell.cterms) == set(relevant_filtered(cell.model)) == {(1, 1, ((0,),)), (2, 1, ((0,),))}
        assert all(np.isfinite(v) and v != 0.0 for v in cell.cterms.values())
    runs = harness._run_cells(plan, cells)
    _assert_cells_equal_their_per_sample_solves(plan, cells, runs)
    assert all(np.all(np.isfinite(values[plan.observables[0].name])) for values, _ in runs)


def _record_stacks(monkeypatch) -> list:
    """(row groups, rows) of every solve_stack the harness runs from here on."""
    calls = []
    solve = harness.solve_stack

    def recorded(forces, phi_init, cfg, noise):
        calls.append((len(forces), noise.shape[0]))
        return solve(forces, phi_init, cfg, noise=noise)

    monkeypatch.setattr(harness, "solve_stack", recorded)
    return calls


def _own_values(plan, cell) -> tuple:
    """The values and blow-ups of one cell solved alone: all its samples'
    drive windows as one solve_stack."""
    spec = plan.lattice()
    zero = Field(spec, np.zeros(spec.space_shape()), SPACE_ONLY)
    windows = np.stack([harness._drive_window(plan, cell, s, {}) for s in range(plan.samples)])
    return harness._run_cell(plan, solve_stack([(cell.model, cell.cterms)], zero, plan.solve, noise=windows))


def _assert_cells_equal_their_own_stacks(plan, cells, runs):
    for cell, (values, blowups) in zip(cells, runs):
        own_values, own_blowups = _own_values(plan, cell)
        assert blowups == own_blowups
        for name, v in own_values.items():
            np.testing.assert_array_equal(values[name], v)


@pytest.mark.parametrize(
    "scheme, t_local, strength",
    [("etd1", 0.25, {}), ("etd_rk2", 0.07, {}), ("etd_rk2", 0.07, UNSTABLE)],
    ids=["etd1", "etd_rk2-windows", "etd_rk2-blow-ups"],
)
def test_block_of_cells_is_one_stack_equal_to_each_cells_own(monkeypatch, scheme, t_local, strength):
    """Two families x two nu share one term table, so each block of the
    plan is one solve_stack of all four cells (three samples: 12 rows), and
    every cell's values and blow-ups equal those of its own stack, bit for
    bit.  With the growing cubic and a radius of 5 some rows blow up
    mid-block and leave the stack while the others run on."""
    calls = _record_stacks(monkeypatch)
    cfg = SolveConfig(scheme=scheme, max_horizon=0.25, t_local=t_local, blow_up_radius=5.0)
    plan = _small_plan(samples=3, solve=cfg, variants=(_variant("bump", **strength), _variant("skew", **strength)))
    cells = harness._make_cells(plan)
    runs = harness._run_cells(plan, cells)
    assert calls == [(4, 12)]
    blowups = sum(b for _, b in runs)
    assert (0 < blowups < 12) if strength else blowups == 0
    _assert_cells_equal_their_own_stacks(plan, cells, runs)


def test_cells_with_other_terms_run_in_their_own_group(monkeypatch):
    """An override that zeroes bump's mass counterterm leaves its force with
    the cubic alone: bump's cells and skew's cells solve as two stacks per
    block, and each cell still equals its own stack."""
    calls = _record_stacks(monkeypatch)
    zero = (((1, 1, ((0,),)), 0.0),)
    plan = _small_plan(samples=2, counterterm_overrides=(("bump", zero),))
    cells = harness._make_cells(plan)
    runs = harness._run_cells(plan, cells)
    assert calls == [(2, 4), (2, 4)]
    _assert_cells_equal_their_own_stacks(plan, cells, runs)


def test_fewer_rows_than_cells_run_one_sample_per_block(monkeypatch):
    """With STACK_SIZE below the plan's four cells each block holds one
    sample of every cell, and the values are those of the default blocks."""
    plan = _small_plan(samples=3)
    cells = harness._make_cells(plan)
    default = harness._run_cells(plan, cells)
    calls = _record_stacks(monkeypatch)
    monkeypatch.setattr(harness, "STACK_SIZE", 3)
    runs = harness._run_cells(plan, cells)
    assert calls == [(4, 4)] * 3
    for (values, blowups), (expected, expected_blowups) in zip(runs, default):
        assert blowups == expected_blowups
        for name, v in expected.items():
            np.testing.assert_array_equal(values[name], v)


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
    noise of sample_macroscopic_noise, to 1e-13 of its size.  Both are
    solved as one stack of linear_desk, which has no force, so each
    trajectory is its driver D.  At history 0.05, shorter than the taps of
    nu = 0.2 reach, the tail starts at the window start."""
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
    zero = Field(spec, np.zeros(spec.space_shape()), SPACE_ONLY)
    cells = harness._make_cells(plan)
    assert len(cells) == 6
    for cell in cells:
        driver = cell.driver
        linear = preset("linear_desk", noise=cell.model.noise)
        ct = {key: 0.0 for key in relevant_filtered(linear)}
        assert driver.rows == ((760, 1001) if history == 2.0 else (0, 221))
        for s in (0, 3):
            xi = sample_macroscopic_noise(cell.model.noise, spec, s, history=history)
            window = rfft_space(solve_window(xi, spec, plan.solve), spec.d)
            rows = np.stack([driver.window(driver.spectrum(s)), window])
            tail, full = (res.trajectory.data for res in solve_stack([(linear, ct)], zero, plan.solve, noise=rows))
            assert tail.shape == full.shape == (201, spec.n)
            assert np.max(np.abs(full)) > 1.0
            assert np.max(np.abs(tail - full)) <= 1e-13 * np.max(np.abs(full))


def test_coupled_cells_do_not_depend_on_the_history():
    """W's slices are keyed by their absolute step, and the solve windows
    read the same tail of it at any history long enough for the taps: a
    coupled plan's cells come out bit for bit equal at history 2 and 3."""
    plan = _small_plan(samples=3)
    report = run_universality(plan)
    longer = run_universality(replace(plan, history=3.0))
    assert [c.driver.rows for c in harness._make_cells(plan)] == [(190, 226)] * 4
    assert [c.driver.rows for c in harness._make_cells(replace(plan, history=3.0))] == [(290, 326)] * 4
    assert report.cells == longer.cells
    assert report.gaps == longer.gaps
    assert all(np.isfinite(cell["estimate"]) for cell in report.cells.values())


def _shot_variant():
    nm = NoiseModel("poisson_shot", 1.0, 7, "bump", resolution_policy="spectral")
    return ("shot", preset("phi4_desk", lam=0.3, noise=nm))


def _second_order_variant():
    label, model = _variant("bump")
    return (label, replace(model, dim_lambda=0.1))


@pytest.mark.parametrize("variant, nu_schedule", [(_shot_variant(), (1.0, 0.5))], ids=["poisson_shot"])
def test_general_path_cells_equal_the_per_sample_pipeline(variant, nu_schedule):
    """Shot noise keeps the general path: each sample's noise sampled and
    its window cut on its own, giving the values of solve_mild bit for
    bit."""
    label, model = variant
    # forced counterterms: no Wick sums for shot noise
    forced = tuple((key, 0.0) for key in relevant_filtered(model))
    plan = _small_plan(
        variants=(variant,),
        nu_schedule=nu_schedule,
        samples=2,
        counterterm_overrides=((label, forced),),
    )
    assert model.noise.kind == "poisson_shot"
    spec = plan.lattice()
    psi = harness._smearing_function(spec)
    zero = Field(spec, np.zeros(spec.space_shape()), SPACE_ONLY)
    for cell in harness._make_cells(plan):
        assert cell.driver is None
        [(values, _)] = harness._run_cells(plan, [cell])
        expected = []
        for s in range(plan.samples):
            xi = sample_macroscopic_noise(cell.model.noise, spec, s, history=plan.history)
            res = solve_mild(cell.model, cell.cterms, xi, zero, plan.solve)
            expected.append(harness._observable_value(plan.observables[0], res, psi))
        np.testing.assert_array_equal(values[plan.observables[0].name], expected)


def _record_flow_nodes(monkeypatch) -> list:
    """(family, nu, mu) of every cell at every mu of the flows that run from
    here on: the nodes and the two end points of each wick_sums call."""
    calls = []
    wick_sums = flow.wick_sums

    def recorded(wicks, mus, dot):
        calls.extend((wick.model.family, wick.model.nu, mu) for wick in wicks for mu in mus)
        return wick_sums(wicks, mus, dot)

    monkeypatch.setattr(flow, "wick_sums", recorded)
    return calls


@pytest.mark.parametrize(
    "builds_shift, second_order",
    [(True, True), (False, True), (True, False)],
    ids=["shift", "direct", "shift-i_rhd-0"],
)
def test_short_history_faults_on_the_shift_path_only(builds_shift, second_order):
    """A history of 1, shorter than the support [0, 2] of G - G_1, faults
    only where a stationary shift is built: build_stationary_shift reads
    the window through expand_pathwise, which raises at i_rhd = 2 as at
    i_rhd = 0.  No solve builds one, so every plan runs the direct solve on
    that history.  The i_rhd = 2 plan forces its counterterms, since the
    flow stops short of the relevant orders i >= 3 that dim_lambda = 0.1
    brings."""
    label, model = _second_order_variant() if second_order else _variant("bump")
    plan = _small_plan(samples=1, history=1.0, variants=((label, model),))
    assert model.i_rhd == (2 if second_order else 0)
    forced = tuple((key, 0.0) for key in relevant_filtered(model))
    if builds_shift:
        xi = sample_macroscopic_noise(model.noise, plan.lattice(), 0, history=plan.history)
        with pytest.raises(ValidationFault, match="too short"):
            solver.build_stationary_shift(model, dict(forced), xi)
    if second_order:
        plan = replace(plan, counterterm_overrides=((label, forced),))
    report = run_universality(plan)
    assert all(np.isfinite(cell["estimate"]) for cell in report.cells.values())


def _peak_norms(monkeypatch, plan: ExperimentPlan, nu: float) -> np.ndarray:
    """(variants, samples): each sample's largest norm over the steps
    before the last at `nu`, from solves stopped only at a radius of 1000.
    A sample whose norm reaches the radius only at the last step keeps its
    value."""
    captured = []
    run_cell = harness._run_cell
    last = int(round(plan.solve.max_horizon / plan.dt))

    def recorded(plan, results):
        captured.append([np.max(res.slice_norms[:last]) for res in results])
        return run_cell(plan, results)

    monkeypatch.setattr(harness, "_run_cell", recorded)
    free = replace(plan, solve=replace(plan.solve, blow_up_radius=1e3))
    for cell in harness._make_cells(free):
        if cell.nu == nu:
            harness._run_cells(free, [cell])
    monkeypatch.undo()
    return np.array(captured)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verdict_reports_compared_variants_and_dropped_samples(monkeypatch):
    variants = (_variant("bump", **UNSTABLE), _variant("skew", **UNSTABLE))
    cfg = SolveConfig(scheme="etd1", max_horizon=0.25)
    plan = _small_plan(samples=3, solve=cfg, variants=variants)
    # a radius between the smallest and the next of the samples' peak norms
    # (the larger of the two variants') stops all samples but one in a
    # variant at the final nu
    lowest, second = np.sort(np.max(_peak_norms(monkeypatch, plan, 0.1), axis=0))[:2]
    assert 1.0 < lowest < second
    plan = replace(plan, solve=replace(cfg, blow_up_radius=0.5 * (lowest + second)))
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


def test_verdict_cells_report_the_lattice_resolution():
    """Criterion 7's plan shape (n = 256, dt = 0.0025, sigma = 1/2, so
    [nu] = nu^2) resolves nu in time but not [nu] in space under the strict
    policy, at every nu of its schedule; the spectral policy it runs under
    does not check, so the verdict says it."""
    plan = _small_plan(
        nu_schedule=(0.2, 0.1, 0.05),
        samples=2,
        n=256,
        dt=0.0025,
        t_max=0.5,
        observables=(Observable("slice_moment", p=2, time=0.5),),
        solve=SolveConfig(scheme="etd1", blow_up_radius=50.0, max_horizon=0.5, t_local=0.5),
        flow_j_levels=8,
        flow_nodes_per_octave=8,
    )
    rows = run_universality(plan).verdict["cells"]
    assert len(rows) == 6
    spec = plan.lattice()
    for row in rows:
        nu = row["nu"]
        assert row["dx_over_scale"] == pytest.approx(spec.dx / nu**2, rel=1e-12)
        assert row["dt_over_nu"] == pytest.approx(spec.dt / nu, rel=1e-12)
        assert row["dx_over_scale"] > 0.25 and row["dt_over_nu"] <= 0.25
        assert row["strict_resolution"] is False
        strict = NoiseModel("mollified_white", nu, 7, row["variant"])
        with pytest.raises(ValidationFault, match=r"need dx <= \[nu\]/4"):
            sample_macroscopic_noise(strict, spec, 0)


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
    get the counterterms of each cell's own flow_expected to round-off.
    One wick_sums call, over every node and the two end points, serves all
    cells, whose taps, and so whose lag counts, differ with nu."""
    plan = _small_plan(nu_schedule=(0.2, 0.1, 0.05))
    calls = []
    wick_sums = flow.wick_sums

    def recorded(wicks, mus, dot):
        calls.append(([len(wick.taps) for wick in wicks], np.array(mus), dot))
        return wick_sums(wicks, mus, dot)

    monkeypatch.setattr(flow, "wick_sums", recorded)
    cells = harness._make_cells(plan)
    monkeypatch.undo()
    assert len(cells) == 6
    nodes, _ = flow._octave_nodes(plan.flow_j_levels, plan.flow_nodes_per_octave)
    [(taps, mus, dot)] = calls
    assert len(taps) == 6 and len(set(taps)) == 3 and dot
    assert np.array_equal(mus, np.append(nodes, (2.0**-plan.flow_j_levels, 1.0)))
    spec = plan.lattice()
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
    assert len(calls) == len(plan.variants) * len(plan.nu_schedule) * (len(nodes) + 2)
    calls.clear()
    zero = (((1, 1, ((0,),)), 0.0),)
    plan = replace(plan, counterterm_overrides=(("bump", zero),))
    cells = harness._make_cells(plan)
    assert {family for family, _, _ in calls} == {"skew"}
    assert [c.cterms for c in cells if c.label == "bump"] == [dict(zero)] * 2
    calls.clear()
    harness._make_cells(replace(plan, counterterm_overrides=(("bump", zero), ("skew", zero))))
    assert calls == []
