"""Command-line front end: configuration loading, orchestration, and
persistence (JSON configs/results, CSV diagnostics, FLD1 fields).

Every run writes manifest.json (resolved config, package versions, seed,
argv) into the output directory; replaying the recorded argv reproduces the
outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalFault, ValidationFault
from .flow import expand_pathwise, flow_expected
from .harness import (
    ExperimentPlan,
    Observable,
    run_universality,
)
from .kernels import default_g, invariant_battery
from .lattice import SPACE_ONLY, Field, LatticeSpec, read_fld1, write_fld1
from .model import ModelSpec, Monomial, RenormScheme, _norm_index
from .noise import NoiseModel, estimate_cumulants, sample_macroscopic_noise
from .norms import scale_norm
from .solver import SolveConfig, solve_with_patching

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# -- configuration ----------------------------------------------------------


# Every loader reads a JSON object through _keys and _get, so a malformed
# file, a misspelled key or a value of the wrong type is a ValidationFault
# naming the place, never a traceback or a silently applied default.

_REQUIRED = object()
_KINDS = {
    int: lambda v: isinstance(v, int) and not isinstance(v, bool)
    or isinstance(v, float) and v.is_integer(),
    float: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    bool: lambda v: isinstance(v, bool),
    str: lambda v: isinstance(v, str),
    list: lambda v: isinstance(v, list),
}


def _keys(cfg, where: str, allowed: tuple) -> dict:
    """`cfg` itself, once it is a JSON object with no key outside `allowed`."""
    if not isinstance(cfg, dict):
        raise ValidationFault(f"{where} must be a JSON object, got {type(cfg).__name__}")
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ValidationFault(f"unknown key(s) {unknown} in {where}; allowed: {list(allowed)}")
    return cfg


def _get(cfg: dict, key: str, kind, where: str, default=_REQUIRED):
    """cfg[key] as `kind`; `default` when absent (or null, for a None default)."""
    if key not in cfg or (cfg[key] is None and default is None):
        if default is _REQUIRED:
            raise ValidationFault(f"{where} lacks the key {key!r}")
        return default
    value = cfg[key]
    if not _KINDS[kind](value):
        raise ValidationFault(f"{where}.{key} must be of type {kind.__name__}, got {value!r}")
    return kind(value)


def _scalars(cfg: dict, where: str, cls, kinds: dict, **defaults) -> dict:
    """The keys of `kinds`, each read by _get as its kind.  An absent key
    takes its value in `defaults`, else the default of the dataclass `cls`,
    and is required where neither has one."""
    return {
        key: _get(cfg, key, kind, where, defaults.get(key, getattr(cls, key, _REQUIRED)))
        for key, kind in kinds.items()
    }


def _multi_index(cfg: dict, where: str):
    """A monomial's derivative list: 0, or a list of lists of integers."""
    a = cfg.get("a", 0)
    ok = a == 0 and not isinstance(a, bool) or isinstance(a, list) and all(
        isinstance(aq, list) and all(_KINDS[int](x) for x in aq) for aq in a
    )
    if not ok:
        raise ValidationFault(f"{where}.a must be 0 or a list of integer lists, got {a!r}")
    return a


def _entry(cfg, d: int, where: str) -> tuple:
    """((i, m, a), value) of one scheme or counterterm entry."""
    e = _keys(cfg, where, ("i", "m", "a", "value"))
    m = _get(e, "m", int, where)
    a = tuple(sorted(_norm_index(_multi_index(e, where), m, d)))
    return (_get(e, "i", int, where), m, a), _get(e, "value", float, where)


def noise_from_config(cfg: dict, where: str = "noise") -> NoiseModel:
    kinds = {
        "kind": str, "nu": float, "master_seed": int, "family": str, "rate": float,
        "resolution_policy": str,
    }
    _keys(cfg, where, tuple(kinds))
    defaults = dict(kind="mollified_white", nu=0.1, master_seed=0)
    return NoiseModel(**_scalars(cfg, where, NoiseModel, kinds, **defaults))


def _monomial(cfg, where: str) -> Monomial:
    _keys(cfg, where, ("i", "m", "a", "base", "extra_exponent"))
    kinds = {"i": int, "m": int, "base": float, "extra_exponent": float}
    return Monomial(a=_multi_index(cfg, where), **_scalars(cfg, where, Monomial, kinds))


def model_from_config(cfg: dict, where: str = "model") -> ModelSpec:
    """A model file; its lattice, scheme and solve blocks are read by
    lattice_from_config, scheme_from_config and solve_from_config."""
    allowed = (
        "d", "sigma", "dim_lambda", "lam", "symmetry", "monomials", "noise", "lattice", "scheme",
        "solve",
    )
    _keys(cfg, where, allowed)
    monomials = tuple(
        _monomial(m, f"{where}.monomials[{k}]")
        for k, m in enumerate(_get(cfg, "monomials", list, where, []))
    )
    noise = noise_from_config(cfg["noise"], f"{where}.noise") if "noise" in cfg else None
    kinds = {"d": int, "sigma": float, "dim_lambda": float, "lam": float, "symmetry": str}
    scalars = _scalars(cfg, where, ModelSpec, kinds, lam=1.0)
    return ModelSpec(monomials=monomials, noise=noise, **scalars)


def lattice_from_config(model: ModelSpec, cfg: dict) -> LatticeSpec:
    kinds = {"n": int, "dt": float, "t_min": float, "t_max": float}
    lat = _keys(cfg.get("lattice", {}), "lattice", tuple(kinds))
    defaults = dict(n=64, dt=0.01, t_min=0.0, t_max=1.0)
    scalars = _scalars(lat, "lattice", LatticeSpec, kinds, **defaults)
    return LatticeSpec(d=model.d, sigma=model.sigma, **scalars)


def _entries(entries, d: int, where: str) -> tuple:
    if not isinstance(entries, list):
        raise ValidationFault(f"{where} must be a list, got {type(entries).__name__}")
    return tuple(_entry(e, d, f"{where}[{k}]") for k, e in enumerate(entries))


def scheme_from_config(model: ModelSpec, entries) -> RenormScheme:
    return RenormScheme.for_model(model, dict(_entries(entries or [], model.d, "scheme")))


def solve_from_config(cfg: dict) -> SolveConfig:
    kinds = {
        "scheme": str, "t_local": float, "blow_up_radius": float, "max_horizon": float,
        "dealias": bool, "gamma": float,
    }
    s = _keys(cfg.get("solve", {}), "solve", tuple(kinds))
    return SolveConfig(**_scalars(s, "solve", SolveConfig, kinds))


def _observable(cfg, where: str) -> Observable:
    _keys(cfg, where, ("kind", "p", "time", "lag"))
    lag = _get(cfg, "lag", list, where, [])
    if not all(_KINDS[int](x) for x in lag):
        raise ValidationFault(f"{where}.lag must be a list of integers, got {lag!r}")
    kinds = {"kind": str, "p": int, "time": float}
    return Observable(lag=tuple(lag), **_scalars(cfg, where, Observable, kinds))


def _variant(cfg, where: str) -> tuple:
    _keys(cfg, where, ("label", "model"))
    return _get(cfg, "label", str, where), model_from_config(cfg.get("model"), f"{where}.model")


def plan_from_config(cfg: dict) -> ExperimentPlan:
    where = "plan"
    allowed = (
        "variants", "nu_schedule", "samples", "n", "dt", "t_max", "observables", "scheme",
        "counterterm_overrides", "solve", "history", "flow_j_levels",
        "flow_nodes_per_octave",
    )
    _keys(cfg, where, allowed)
    variants = tuple(
        _variant(v, f"plan.variants[{k}]") for k, v in enumerate(_get(cfg, "variants", list, where))
    )
    if not variants:
        raise ValidationFault("plan needs at least one variant")
    d = variants[0][1].d
    nus = _get(cfg, "nu_schedule", list, where)
    if not all(_KINDS[float](x) for x in nus):
        raise ValidationFault(f"plan.nu_schedule must be a list of numbers, got {nus!r}")
    observables = tuple(
        _observable(o, f"plan.observables[{k}]")
        for k, o in enumerate(_get(cfg, "observables", list, where, [{}]))
    )
    overrides = []
    for k, o in enumerate(_get(cfg, "counterterm_overrides", list, where, [])):
        at = f"plan.counterterm_overrides[{k}]"
        _keys(o, at, ("label", "entries"))
        overrides.append((_get(o, "label", str, at), _entries(o.get("entries"), d, f"{at}.entries")))
    kinds = {
        "samples": int, "n": int, "dt": float, "t_max": float, "history": float,
        "flow_j_levels": int, "flow_nodes_per_octave": int,
    }
    return ExperimentPlan(
        variants=variants,
        nu_schedule=tuple(float(x) for x in nus),
        observables=observables,
        scheme_values=_entries(cfg.get("scheme", []), d, "plan.scheme"),
        counterterm_overrides=tuple(overrides),
        solve=solve_from_config(cfg),
        **_scalars(cfg, where, ExperimentPlan, kinds),
    )


# -- persistence ------------------------------------------------------------


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in rows:
            w.writerow(r)


def _key_str(key) -> str:
    i, m, a = key
    return f"{i};{m};{list(list(aq) for aq in a)}"


def write_manifest(out: Path, args, config) -> None:
    manifest = {
        "argv": sys.argv[1:],
        "command": args.command,
        "config": config,
        "versions": {
            "flowpde": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }
    _write_json(out / "manifest.json", manifest)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ValidationFault(f"config file not found: {p}")
    try:
        return json.loads(p.read_text())
    except ValueError as exc:
        raise ValidationFault(f"config file {p} is not valid JSON: {exc}") from None


# -- subcommands ------------------------------------------------------------


def cmd_kernels(args) -> int:
    out = _outdir(args)
    rows = invariant_battery(d=args.d, sigma=args.sigma, n=args.n)
    _write_csv(
        out / "kernels.csv",
        ["check_name", "parameter", "value", "expected", "pass"],
        [
            [r["check"], r["parameter"], repr(r["value"]), repr(r["tol"]), r["pass"]]
            for r in rows
        ],
    )
    write_manifest(out, args, {"d": args.d, "sigma": args.sigma, "n": args.n})
    ok = all(r["pass"] for r in rows)
    for r in rows:
        print(f"{'PASS' if r['pass'] else 'FAIL'} {r['check']}: {r['value']:.3e} (tol {r['tol']:.3e})")
    return EXIT_OK if ok else EXIT_NUMERICAL


def _noisy_model(args) -> tuple:
    """(config, model, lattice) of the --model file, which must have a noise
    block, with --nu and, where the command has it, --seed applied to it."""
    cfg = _load_config(args.model)
    model = model_from_config(cfg)
    if model.noise is None:
        raise ValidationFault("model config lacks a noise block")
    nm = model.noise if args.nu is None else model.noise.with_nu(args.nu)
    if getattr(args, "seed", None) is not None:
        nm = dataclasses.replace(nm, master_seed=args.seed)
    model = dataclasses.replace(model, noise=nm)
    return cfg, model, lattice_from_config(model, cfg)


def cmd_noise(args) -> int:
    if not 2 <= args.order <= args.samples or args.order > 4:
        raise ValidationFault(f"need 2 <= --order <= min(4, --samples), got {args.order} and {args.samples}")
    cfg, model, spec = _noisy_model(args)
    out = _outdir(args)
    fields = [
        sample_macroscopic_noise(model.noise, spec, s, history=0.0) for s in range(args.samples)
    ]
    write_fld1(out / "sample0.fld", fields[0])
    lags = [(0,) * (1 + model.d), (0,) + (1,) + (0,) * (model.d - 1)]
    rows = []
    for order in range(2, args.order + 1):
        est = estimate_cumulants(fields, order, lags)
        for lag, v, se in zip(est.lags, est.values, est.standard_errors):
            rows.append([order, str(lag), repr(float(v)), repr(float(se)), est.samples])
    _write_csv(out / "cumulants.csv", ["order", "lag", "value", "se", "samples"], rows)
    write_manifest(out, args, cfg)
    print(f"wrote {args.samples} samples' cumulant table to {out / 'cumulants.csv'}")
    return EXIT_OK


def cmd_renorm(args) -> int:
    cfg = _load_config(args.model)
    model = model_from_config(cfg)
    nu = args.nu if args.nu is not None else (model.noise.nu if model.noise else 0.1)
    spec = lattice_from_config(model, cfg)
    scheme = scheme_from_config(model, cfg.get("scheme"))
    curves, ct = flow_expected(model, spec, nu, scheme, i_max=args.imax)
    out = _outdir(args)
    payload = {
        "nu": nu,
        "entries": [
            {
                "i": k[0],
                "m": k[1],
                "a": [list(aq) for aq in k[2]],
                "value": v,
                "provenance": ct.provenance[k],
                "quad_err": float(ct.diagnostics["quad_error"].get(k, 0.0)),
            }
            for k, v in sorted(ct.entries.items())
        ],
        "diagnostics": {
            k: float(v)
            for k, v in ct.diagnostics.items()
            if isinstance(v, (int, float))
        },
    }
    payload["diagnostics"]["sunset"] = {k: float(v) for k, v in ct.diagnostics["sunset"].items()}
    _write_json(out / "ct.json", payload)
    rows = []
    for k, (mus, vals) in sorted(curves.items()):
        for mu, val in zip(mus, vals):
            rows.append([_key_str(k), repr(float(mu)), repr(float(val))])
    _write_csv(out / "flow_curves.csv", ["index", "mu", "value"], rows)
    write_manifest(out, args, cfg)
    for e in payload["entries"]:
        print(f"(i={e['i']}, m={e['m']}) -> {e['value']:.8g} [{e['provenance']}]")
    return EXIT_OK


def cmd_expand(args) -> int:
    cfg, model, spec = _noisy_model(args)
    scheme = scheme_from_config(model, cfg.get("scheme"))
    _, ct = flow_expected(model, spec, model.noise.nu, scheme)
    noise = sample_macroscopic_noise(model.noise, spec, args.sample, history=2.0)
    expansion = expand_pathwise(model, ct, noise, args.order)
    out = _outdir(args)
    for i in range(args.order + 1):
        write_fld1(out / f"f_{i}.fld", expansion["f"][i])
        write_fld1(out / f"psi_{i}.fld", expansion["psi"][i])
    write_manifest(out, args, cfg)
    print(f"wrote pathwise hierarchy through order {args.order} to {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg, model, spec = _noisy_model(args)
    scheme = scheme_from_config(model, cfg.get("scheme"))
    solve_cfg = solve_from_config(cfg)
    _, ct = flow_expected(model, spec, model.noise.nu, scheme)
    noise = sample_macroscopic_noise(model.noise, spec, args.sample, history=2.0)
    zero = Field(spec, np.zeros(spec.space_shape()), SPACE_ONLY)
    res = solve_with_patching(model, ct, noise, zero, solve_cfg)
    out = _outdir(args)
    write_fld1(out / "trajectory.fld", res.trajectory)
    tspec = res.trajectory.spec
    rows = [
        [repr(float(tspec.t_min + j * tspec.dt)), repr(float(v)), res.status]
        for j, v in enumerate(res.slice_norms)
    ]
    _write_csv(out / "norms.csv", ["t", "c_gamma_norm", "status"], rows)
    write_manifest(out, args, cfg)
    print(f"status={res.status} breve_T={res.breve_T:.6g}")
    return EXIT_OK


def cmd_universality(args) -> int:
    cfg = _load_config(args.plan)
    plan = plan_from_config(cfg)
    report = run_universality(plan)
    out = _outdir(args)
    _write_csv(
        out / "report.csv",
        ["variant", "nu", "observable", "estimate", "se", "gap", "gap_se", "verdict"],
        [
            [
                r["variant"],
                repr(float(r["nu"])),
                r["observable"],
                repr(float(r["estimate"])),
                repr(float(r["se"])),
                repr(float(r["gap"])) if r["gap"] != "" else "",
                repr(float(r["gap_se"])) if r["gap_se"] != "" else "",
                r["verdict"],
            ]
            for r in report.rows()
        ],
    )
    _write_json(out / "verdict.json", report.verdict)
    write_manifest(out, args, cfg)
    print(f"verdict: {report.verdict['label']}")
    return EXIT_OK


def cmd_norms(args) -> int:
    f = read_fld1(args.field)
    out = _outdir(args)
    g = args.g if args.g is not None else default_g(f.spec.sigma)
    report = scale_norm(f, args.alpha, g)
    rows = [
        [repr(float(r[key])) for key in ("mu", "raw_norm", "weighted")] + [r["reliable"]]
        for r in report.rows()
    ]
    rows.append(["sup", repr(float(report.sup)), repr(float(report.slope)), True])
    _write_csv(out / "scale_norm.csv", ["mu", "raw_norm", "weighted", "reliable"], rows)
    write_manifest(out, args, {"field": str(args.field), "alpha": args.alpha, "g": g})
    print(f"sup={report.sup:.6g} slope={report.slope:.4f}")
    return EXIT_OK


# -- entry point ------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="flowpde", description="flow-equation SPDE laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernels", help="kernel identity battery")
    k.add_argument("--d", type=int, default=1)
    k.add_argument("--sigma", type=float, default=0.5)
    k.add_argument("--n", type=int, default=64)
    k.add_argument("--out", default="out")
    k.set_defaults(func=cmd_kernels)

    n = sub.add_parser("noise", help="sample noise and estimate cumulants")
    n.add_argument("--model", required=True)
    n.add_argument("--nu", type=float, default=None)
    n.add_argument("--samples", type=int, default=16)
    n.add_argument("--order", type=int, default=3)
    n.add_argument("--out", default="out")
    n.set_defaults(func=cmd_noise)

    r = sub.add_parser("renorm", help="integrate the expectation flow")
    r.add_argument("--model", required=True)
    r.add_argument("--nu", type=float, default=None)
    r.add_argument("--imax", type=int, default=2)
    r.add_argument("--out", default="out")
    r.set_defaults(func=cmd_renorm)

    e = sub.add_parser("expand", help="pathwise stationary hierarchy")
    e.add_argument("--model", required=True)
    e.add_argument("--nu", type=float, default=None)
    e.add_argument("--order", type=int, default=1)
    e.add_argument("--sample", type=int, default=0)
    e.add_argument("--out", default="out")
    e.set_defaults(func=cmd_expand)

    simulate_help = "solve the mild equation: Phi = D + R, D = G * noise; norms.csv monitors R"
    s = sub.add_parser("simulate", help=simulate_help)
    s.add_argument("--model", required=True)
    s.add_argument("--nu", type=float, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--sample", type=int, default=0)
    s.add_argument("--out", default="out")
    s.set_defaults(func=cmd_simulate)

    u = sub.add_parser("universality", help="coupled ensemble comparison")
    u.add_argument("--plan", required=True)
    u.add_argument("--out", default="out")
    u.set_defaults(func=cmd_universality)

    m = sub.add_parser("norms", help="scale-indexed seminorm report")
    m.add_argument("--field", required=True)
    m.add_argument("--alpha", type=float, required=True)
    m.add_argument("--g", type=int, default=None)
    m.add_argument("--out", default="out")
    m.set_defaults(func=cmd_norms)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except ValidationFault as exc:
        print(f"validation fault: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalFault as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
