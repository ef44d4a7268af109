import csv
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from flowpde.cli import (
    EXIT_OK,
    EXIT_VALIDATION,
    _load_config,
    lattice_from_config,
    main,
    model_from_config,
    plan_from_config,
    solve_from_config,
)
from flowpde.errors import ValidationFault
from flowpde.lattice import SPACE_ONLY, SPACE_TIME, Field, LatticeSpec, write_fld1

REPO = Path(__file__).resolve().parents[1]
MODEL = str(REPO / "configs" / "phi4_desk.json")
PLAN = str(REPO / "configs" / "universality_smoke.json")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest_ok(out: Path, command: str):
    m = json.loads((out / "manifest.json").read_text())
    assert m["command"] == command
    assert "argv" in m and "config" in m
    assert set(m["versions"]) == {"flowpde", "numpy", "python"}
    return m


def test_kernels_command(tmp_path):
    out = tmp_path / "kernels"
    rc = main(["kernels", "--d", "1", "--sigma", "0.5", "--n", "32", "--out", str(out)])
    assert rc == EXIT_OK
    rows = _read_csv(out / "kernels.csv")
    slopes = [f"{kind}_slope" for _ in range(3) for kind in ("raw", "dressed")]
    assert [r["check_name"] for r in rows] == [
        "PK_identity",
        "heat_semigroup",
        "dotG_support",
        "reconstruction_error",
        "reconstruction_halving",
        "raw_slope",
        *slopes,
    ]
    assert all(r["pass"] == "True" for r in rows)
    m = _manifest_ok(out, "kernels")
    assert m["config"] == {"d": 1, "sigma": 0.5, "n": 32}


def test_noise_command(tmp_path):
    out = tmp_path / "noise"
    rc = main(["noise", "--model", MODEL, "--samples", "6", "--order", "3", "--out", str(out)])
    assert rc == EXIT_OK
    rows = _read_csv(out / "cumulants.csv")
    assert {r["order"] for r in rows} == {"2", "3"}
    assert all(float(r["se"]) >= 0 for r in rows)
    assert (out / "sample0.fld").exists()
    _manifest_ok(out, "noise")


def test_renorm_command(tmp_path):
    out = tmp_path / "renorm"
    rc = main(["renorm", "--model", MODEL, "--nu", "0.1", "--out", str(out)])
    assert rc == EXIT_OK
    ct = json.loads((out / "ct.json").read_text())
    assert ct["nu"] == 0.1
    assert len(ct["entries"]) == 1
    entry = ct["entries"][0]
    assert (entry["i"], entry["m"]) == (1, 1)
    assert entry["provenance"] in ("flow_integrated", "oracle")
    assert np.isfinite(entry["value"])
    assert ct["diagnostics"]["sunset"] == {}  # no second-order index at dim(lambda) = 0.3
    curves = _read_csv(out / "flow_curves.csv")
    assert {"index", "mu", "value"} <= set(curves[0])
    _manifest_ok(out, "renorm")


def test_renorm_command_persists_sunset_integrals(tmp_path):
    """At dim(lambda) = 0.2 the index (2, 1, 0) is relevant and its
    counterterm comes from the sunset integrals, which ct.json keeps."""
    cfg = json.loads(Path(MODEL).read_text())
    cfg["dim_lambda"] = 0.2
    model = tmp_path / "model.json"
    model.write_text(json.dumps(cfg))
    out = tmp_path / "renorm"
    assert main(["renorm", "--model", str(model), "--nu", "0.1", "--out", str(out)]) == EXIT_OK
    ct = json.loads((out / "ct.json").read_text())
    assert {(e["i"], e["m"]) for e in ct["entries"]} == {(1, 1), (2, 1)}
    sunset = ct["diagnostics"]["sunset"]
    assert set(sunset) == {"I_G", "I_GP", "I_GP2"}
    assert all(np.isfinite(v) for v in sunset.values())
    assert sunset["I_G"] > 0.0


def test_expand_command(tmp_path):
    out = tmp_path / "expand"
    rc = main(["expand", "--model", MODEL, "--order", "1", "--out", str(out)])
    assert rc == EXIT_OK
    for name in ("f_0.fld", "f_1.fld", "psi_0.fld", "psi_1.fld"):
        assert (out / name).exists()
    _manifest_ok(out, "expand")


def test_simulate_command_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["simulate", "--model", MODEL, "--sample", "0", "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "trajectory.fld").exists()
        rows = _read_csv(out / "norms.csv")
        assert rows and rows[-1]["status"] in ("completed", "blew_up")
        _manifest_ok(out, "simulate")
    assert (out1 / "trajectory.fld").read_bytes() == (out2 / "trajectory.fld").read_bytes()
    assert (out1 / "norms.csv").read_bytes() == (out2 / "norms.csv").read_bytes()


def test_simulate_shift_at_order_zero_writes_the_direct_outputs(tmp_path):
    """phi4_desk has stationary order i_rhd = 0, where no shift is built:
    --shift runs the direct solve and writes the same bytes."""
    outs = []
    for extra in ([], ["--shift"]):
        out = tmp_path / ("shift" if extra else "direct")
        assert main(["simulate", "--model", MODEL, "--sample", "1", "--out", str(out), *extra]) == EXIT_OK
        outs.append(out)
    for name in ("trajectory.fld", "norms.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_universality_command(tmp_path):
    out = tmp_path / "uni"
    rc = main(["universality", "--plan", PLAN, "--out", str(out)])
    assert rc == EXIT_OK
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["label"] in ("universal", "distinct")
    assert verdict["compared"] == ["bump", "skew"]
    plan = json.loads(Path(PLAN).read_text())
    assert len(verdict["cells"]) == 2 * len(plan["nu_schedule"])
    for cell in verdict["cells"]:
        assert {cell["variant"], cell["nu"]} <= {"bump", "skew", *plan["nu_schedule"]}
        assert cell["kept"] + cell["dropped"] == plan["samples"]
    rows = _read_csv(out / "report.csv")
    assert {r["variant"] for r in rows} == {"bump", "skew"}
    assert {"estimate", "se", "gap", "verdict"} <= set(rows[0])
    _manifest_ok(out, "universality")


def test_norms_command(tmp_path):
    spec = LatticeSpec(1, 64, 0.05, 0.0, 0.5, 0.5)
    rng = np.random.default_rng(3)
    fld = tmp_path / "f.fld"
    write_fld1(fld, Field(spec, rng.standard_normal(spec.n), SPACE_ONLY))
    out = tmp_path / "norms"
    rc = main(["norms", "--field", str(fld), "--alpha", "-0.5", "--out", str(out)])
    assert rc == EXIT_OK
    rows = _read_csv(out / "scale_norm.csv")
    assert rows[-1]["mu"] == "sup"
    _manifest_ok(out, "norms")


def test_norms_command_rejects_truncated_field(tmp_path):
    spec = LatticeSpec(1, 64, 0.05, 0.0, 0.5, 0.5)
    fld = tmp_path / "f.fld"
    write_fld1(fld, Field(spec, np.ones(spec.n), SPACE_ONLY))
    fld.write_bytes(fld.read_bytes()[:-16])
    rc = main(["norms", "--field", str(fld), "--alpha", "-0.5", "--out", str(tmp_path / "o")])
    assert rc == EXIT_VALIDATION


@pytest.mark.parametrize(
    "offset, value", [(40 + 8 * 37, np.nan), (16, 1e308)], ids=["nan-payload", "dt-1e308"]
)
def test_norms_command_rejects_malformed_field_in_one_line(tmp_path, capsys, offset, value):
    """A non-finite payload value and a header whose window ends at
    t = inf are malformed files: exit code 1 and one line on stderr."""
    spec = LatticeSpec(1, 16, 0.05, -0.5, 0.5, 0.5)
    fld = tmp_path / "f.fld"
    write_fld1(fld, Field(spec, np.ones((spec.nt, spec.n)), SPACE_TIME))
    raw = bytearray(fld.read_bytes())
    raw[offset : offset + 8] = struct.pack("<d", value)
    fld.write_bytes(bytes(raw))
    rc = main(["norms", "--field", str(fld), "--alpha", "-0.5", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert err.startswith("validation fault:") and err.count("\n") == 1, err


def test_missing_config_is_validation_error(tmp_path):
    rc = main(["renorm", "--model", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION


def test_replay_from_manifest(tmp_path):
    """manifest.json records the exact argv; replaying it reproduces the
    outputs byte for byte."""
    import subprocess
    import sys

    out1, out2 = tmp_path / "first", tmp_path / "second"
    base = [sys.executable, "-m", "flowpde.cli", "expand", "--model", MODEL, "--order", "1"]
    subprocess.run(base + ["--out", str(out1)], check=True, capture_output=True)
    m = json.loads((out1 / "manifest.json").read_text())
    argv = list(m["argv"])
    argv[argv.index(str(out1))] = str(out2)
    subprocess.run([sys.executable, "-m", "flowpde.cli"] + argv, check=True, capture_output=True)
    for name in ("f_0.fld", "f_1.fld", "psi_1.fld"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _write(tmp_path, text, name="cfg.json"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_truncated_config_is_validation_fault(tmp_path):
    text = Path(MODEL).read_text()
    with pytest.raises(ValidationFault, match="not valid JSON"):
        _load_config(_write(tmp_path, text[: len(text) // 2]))


def test_top_level_list_is_validation_fault(tmp_path):
    cfg = _load_config(_write(tmp_path, "[1, 2]"))
    with pytest.raises(ValidationFault, match="must be a JSON object"):
        model_from_config(cfg)
    with pytest.raises(ValidationFault, match="must be a JSON object"):
        plan_from_config(cfg)


def test_wrongly_typed_value_is_validation_fault():
    cfg = json.loads(Path(MODEL).read_text())
    model = model_from_config(cfg)
    cfg["lattice"]["n"] = "sixty"
    with pytest.raises(ValidationFault, match=r"lattice\.n must be of type int"):
        lattice_from_config(model, cfg)
    plan = json.loads(Path(PLAN).read_text())
    plan["n"] = "sixty"
    with pytest.raises(ValidationFault, match=r"plan\.n must be of type int"):
        plan_from_config(plan)
    plan = json.loads(Path(PLAN).read_text())
    plan["solve"]["dealias"] = "false"
    with pytest.raises(ValidationFault, match=r"solve\.dealias must be of type bool"):
        plan_from_config(plan)


@pytest.mark.parametrize(
    "where, key",
    [
        ("plan", "flow_nodes_per_octvae"),
        ("solve", "shceme"),
        ("variant model", "lamda"),
        ("noise", "famliy"),
        ("observable", "tmie"),
    ],
)
def test_misspelled_plan_key_is_validation_fault(where, key):
    plan = json.loads(Path(PLAN).read_text())
    model = plan["variants"][0]["model"]
    block = {
        "plan": plan,
        "solve": plan["solve"],
        "variant model": model,
        "noise": model["noise"],
        "observable": plan["observables"][0],
    }[where]
    block[key] = 1
    with pytest.raises(ValidationFault, match=f"unknown key.*{key}"):
        plan_from_config(plan)


def test_misspelled_model_key_is_validation_fault():
    cfg = json.loads(Path(MODEL).read_text())
    cfg["monomials"][0]["bsae"] = 1.0
    with pytest.raises(ValidationFault, match="unknown key.*bsae"):
        model_from_config(cfg)
    cfg = json.loads(Path(MODEL).read_text())
    cfg["lattice"]["t_mxa"] = 2.0
    with pytest.raises(ValidationFault, match="unknown key.*t_mxa"):
        lattice_from_config(model_from_config(cfg), cfg)
    cfg = {"solve": {"shceme": "etd1"}}
    with pytest.raises(ValidationFault, match="unknown key.*shceme"):
        solve_from_config(cfg)


def test_bad_config_exits_with_validation_code(tmp_path, capsys):
    """Each kind of config fault is a one-line message and exit code 1,
    never a traceback or a run on defaults."""
    cfg = json.loads(Path(MODEL).read_text())
    misspelled = dict(cfg, shceme=[])
    typed = json.loads(Path(MODEL).read_text())
    typed["lattice"]["n"] = "sixty"
    bad = {
        "truncated": Path(MODEL).read_text()[:40],
        "list": "[]",
        "typed": json.dumps(typed),
        "misspelled": json.dumps(misspelled),
    }
    for name, text in bad.items():
        path = _write(tmp_path, text, f"{name}.json")
        rc = main(["simulate", "--model", str(path), "--out", str(tmp_path / name)])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION, name
        assert err.startswith("validation fault:") and "Traceback" not in err, err
        assert not (tmp_path / name / "trajectory.fld").exists()


@pytest.mark.parametrize("horizon", [-0.5, 0.0])
def test_bad_solve_horizon_exits_with_validation_code(tmp_path, capsys, horizon):
    """A horizon that is not positive is a config fault: exit code 1 and a
    one-line message naming it, not a traceback from the stepping loop or
    a fault about the lattice window."""
    cfg = json.loads(Path(MODEL).read_text())
    cfg["solve"] = {"max_horizon": horizon}
    path = _write(tmp_path, json.dumps(cfg), "horizon.json")
    rc = main(["simulate", "--model", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert err.startswith("validation fault: max_horizon") and "Traceback" not in err, err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out" / "trajectory.fld").exists()


def _universality_argv(tmp_path, key, value, block=None):
    """`flowpde universality` on the smoke plan with one value changed."""
    plan = json.loads(Path(PLAN).read_text())
    (plan[block] if block else plan)[key] = value
    path = _write(tmp_path, json.dumps(plan), "plan.json")
    return ["universality", "--plan", str(path), "--out", str(tmp_path / "out")]


def _truncated_field_argv(tmp_path):
    spec = LatticeSpec(1, 64, 0.05, 0.0, 0.5, 0.5)
    fld = tmp_path / "f.fld"
    write_fld1(fld, Field(spec, np.ones(spec.n), SPACE_ONLY))
    fld.write_bytes(fld.read_bytes()[:-16])
    return ["norms", "--field", str(fld), "--alpha", "-0.5", "--out", str(tmp_path / "out")]


CLI_FAULTS = {
    "unknown-plan-key": (lambda p: _universality_argv(p, "flow_nodes_per_octvae", 4), "flow_nodes_per_octvae"),
    # a key that no longer does anything is refused, not silently ignored
    "removed-coupling-key": (lambda p: _universality_argv(p, "coupling", False), "['coupling']"),
    "wrongly-typed-value": (lambda p: _universality_argv(p, "n", "sixty"), "plan.n must be of type int"),
    "samples-0": (lambda p: _universality_argv(p, "samples", 0), "plan.samples must be at least 1"),
    "samples-negative": (lambda p: _universality_argv(p, "samples", -3), "plan.samples must be at least 1"),
    "flow_j_levels-0": (lambda p: _universality_argv(p, "flow_j_levels", 0), "plan.flow_j_levels"),
    "flow_j_levels-negative": (lambda p: _universality_argv(p, "flow_j_levels", -1), "plan.flow_j_levels"),
    "flow_nodes_per_octave-0": (
        lambda p: _universality_argv(p, "flow_nodes_per_octave", 0),
        "plan.flow_nodes_per_octave",
    ),
    "flow_nodes_per_octave-negative": (
        lambda p: _universality_argv(p, "flow_nodes_per_octave", -2),
        "plan.flow_nodes_per_octave",
    ),
    "truncated-fld1": (_truncated_field_argv, ""),
    "nan-blow_up_radius": (
        lambda p: _universality_argv(p, "blow_up_radius", float("nan"), "solve"),
        "blow-up radius",
    ),
    # JSON's NaN and Infinity parse as floats; a history sets where W starts
    "nan-history": (lambda p: _universality_argv(p, "history", float("nan")), "plan.history"),
    "infinite-history": (lambda p: _universality_argv(p, "history", float("inf")), "plan.history"),
    "negative-history": (lambda p: _universality_argv(p, "history", -1.0), "plan.history"),
    # the solve stops at max_horizon 0.1, before the observable's time 0.25
    "observable-after-max_horizon": (
        lambda p: _universality_argv(p, "max_horizon", 0.1, "solve"),
        "not in the horizon [0, 0.1]",
    ),
    "two_point-lag-longer-than-d": (
        lambda p: _universality_argv(p, "observables", [{"kind": "two_point", "lag": [1, 2], "time": 0.25}]),
        "two_point lag [1, 2]",
    ),
}


@pytest.mark.parametrize("fault", list(CLI_FAULTS))
def test_every_kind_of_fault_exits_with_validation_code(tmp_path, capsys, fault):
    """Each kind of input fault ends the CLI with exit code 1 and one
    `validation fault:` line on stderr naming it: no traceback, no run on a
    silently empty or defaulted plan, and no output directory."""
    argv, names = CLI_FAULTS[fault]
    rc = main(argv(tmp_path))
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert err.startswith("validation fault:") and err.count("\n") == 1, err
    assert "Traceback" not in err and names in err, err
    assert not (tmp_path / "out").exists()
