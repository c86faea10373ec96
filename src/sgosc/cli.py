"""Batch command-line front end.

One process, batch-only: a JSON job config selects a command, the run writes
JSON/CSV artifacts with the fully resolved protocol echoed into every output.
Exit codes: 0 success, 2 validation error, 3 numerical failure (with a
diagnostic JSON on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import catalog as cat
from .compactify import CompactPoint, sphere_grid
from .oscint import (
    IntegrabilityError,
    NonConvergenceError,
    SchwartzFn,
    direct_quadrature,
    eval_pairing,
    make_osc_integral,
)
from .phase import PhaseFn, boundary_pairs, build_mphi_grid, build_spphi_grid, check_admissible
from .regularize import RegularizerRefused
from .symbols import DEFAULT_PROTOCOL, ScanProtocol, parse_symbol_expr
from .synth import PrescribedWfSpec, make_prescribed
from .wavefront import WfProtocol, wf_scan
from .fio import FlagError, build_V, compose, fourier_half_operator, kg_evolve, HalfOperator

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_COMMANDS = (
    "check-phase",
    "mphi",
    "spphi",
    "eval-oscint",
    "wf-scan",
    "synth-wf",
    "fio-apply",
    "kg",
    "catalog",
)

_SCHEMAS = {
    "check-phase": {
        "type": "object",
        "required": ["command", "phase"],
        "properties": {
            "command": {"const": "check-phase"},
            "phase": {"type": "string"},
            "dims": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
            "order": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
            "mass": {"type": "number", "exclusiveMinimum": 0},
            "out": {"type": "string"},
        },
    },
    "mphi": {
        "type": "object",
        "required": ["command", "phase", "out_csv"],
        "properties": {
            "command": {"const": "mphi"},
            "phase": {"type": "string"},
            "dims": {"type": "array"},
            "order": {"type": "array"},
            "mass": {"type": "number", "exclusiveMinimum": 0},
            "grid": {"type": "object"},
            "protocol": {"type": "object"},
            "out_csv": {"type": "string"},
            "out_json": {"type": "string"},
        },
    },
    "spphi": {
        "type": "object",
        "required": ["command", "phase", "out_csv"],
        "properties": {
            "command": {"const": "spphi"},
            "phase": {"type": "string"},
            "dims": {"type": "array"},
            "order": {"type": "array"},
            "mass": {"type": "number", "exclusiveMinimum": 0},
            "grid": {"type": "object"},
            "protocol": {"type": "object"},
            "out_csv": {"type": "string"},
            "out_json": {"type": "string"},
        },
    },
    "eval-oscint": {
        "type": "object",
        "required": ["command", "phase", "amplitude", "testfn"],
        "properties": {
            "command": {"const": "eval-oscint"},
            "phase": {"type": "string"},
            "amplitude": {"type": "string"},
            "testfn": {"type": "string"},
            "dims": {"type": "array"},
            "order": {"type": "array", "items": {"type": "number"}},
            "amp_order": {"type": "array", "items": {"type": "number"}},
            "r": {"anyOf": [{"type": "integer"}, {"const": "auto"}]},
            "box": {"type": "array", "items": {"type": "number"}},
            "tol": {"type": "number"},
            "oracle": {"type": "boolean"},
            "out": {"type": "string"},
        },
    },
    "wf-scan": {
        "type": "object",
        "required": ["command", "distribution", "out_csv"],
        "properties": {
            "command": {"const": "wf-scan"},
            "distribution": {"type": "object"},
            "protocol": {"type": "object"},
            "out_csv": {"type": "string"},
            "out_json": {"type": "string"},
        },
    },
    "synth-wf": {
        "type": "object",
        "required": ["command", "spec", "dim", "out_csv"],
        "properties": {
            "command": {"const": "synth-wf"},
            "spec": {"type": "object"},
            "dim": {"type": "integer"},
            "protocol": {"type": "object"},
            "out_csv": {"type": "string"},
            "out_json": {"type": "string"},
        },
    },
    "fio-apply": {
        "type": "object",
        "required": ["command", "operator", "f", "grid", "out"],
        "properties": {
            "command": {"const": "fio-apply"},
            "operator": {"type": "object"},
            "f": {"type": "string"},
            "grid": {"type": "array", "minItems": 3, "maxItems": 3},
            "out": {"type": "string"},
        },
    },
    "kg": {
        "type": "object",
        "required": ["command", "t", "f", "grid", "out"],
        "properties": {
            "command": {"const": "kg"},
            "t": {"type": "number", "minimum": 0},
            "mass": {"type": "number", "exclusiveMinimum": 0},
            "c": {"type": "number"},
            "f": {"type": "string"},
            "grid": {"type": "array", "minItems": 3, "maxItems": 3},
            "out": {"type": "string"},
        },
    },
    "catalog": {
        "type": "object",
        "required": ["command"],
        "properties": {"command": {"const": "catalog"}},
    },
}

_CATALOG_PHASES = ("kg4", "kg11", "sep-power")
_CATALOG_AMPS = ("kg4", "kg11", "kg11-trunc", "gauss", "one")


class ValidationFailure(ValueError):
    def __init__(self, message, pointer=""):
        super().__init__(message)
        self.pointer = pointer


def _validate(config: dict) -> None:
    cmd = config.get("command")
    if cmd not in _COMMANDS:
        raise ValidationFailure(f"unknown command {cmd!r}", pointer="/command")
    validator = Draft202012Validator(_SCHEMAS[cmd])
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        ptr = "/" + "/".join(str(p) for p in e.absolute_path)
        raise ValidationFailure(e.message, pointer=ptr)


def _resolve_phase(config: dict) -> PhaseFn:
    name = config["phase"]
    if name in _CATALOG_PHASES:
        kw = {}
        if "mass" in config:
            kw["mass"] = config["mass"]
        if name == "sep-power" and "order" in config:
            kw["n"], kw["nu"] = config["order"]
        return cat.get_phase(name, **kw)
    dims = config.get("dims")
    order = config.get("order")
    if dims is None or order is None:
        raise ValidationFailure(
            "expression phases need dims and order", pointer="/phase"
        )
    sym = parse_symbol_expr(name, tuple(dims), tuple(order))
    return PhaseFn(sym, tuple(order))


def _resolve_amplitude(config: dict, phi: PhaseFn):
    name = config["amplitude"]
    if name in _CATALOG_AMPS:
        return cat.get_amplitude(name, d=phi.d, s=phi.s, mass=config.get("mass", 1.0))
    order = config.get("amp_order")
    if order is None:
        raise ValidationFailure(
            "expression amplitudes need amp_order", pointer="/amplitude"
        )
    return parse_symbol_expr(name, (phi.d, phi.s), tuple(order))


def _protocol_from(config: dict) -> ScanProtocol:
    overrides = config.get("protocol", {})
    scan_keys = {f.name for f in ScanProtocol.__dataclass_fields__.values()}
    kw = {k: v for k, v in overrides.items() if k in scan_keys}
    for key in ("radii", "base_radii", "small_radii", "admiss_radii"):
        if key in kw:
            kw[key] = tuple(kw[key])
    return DEFAULT_PROTOCOL.replace(**kw) if kw else DEFAULT_PROTOCOL


def _write_json(path: str, payload: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: str, header, rows) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _pair_grid(phi: PhaseFn, grid_cfg: dict, covariable_dim=None):
    s = phi.s if covariable_dim is None else covariable_dim
    n_dirs = grid_cfg.get("n_dirs", 8)
    d_dirs = sphere_grid(phi.d, n_dirs)
    s_dirs = sphere_grid(s, n_dirs)
    finite_x = grid_cfg.get("finite_x", [[0.0] * phi.d])
    finite_xi = grid_cfg.get("finite_xi", [[0.0] * s])
    return boundary_pairs(d_dirs, s_dirs, finite_x, finite_xi)


# -- command implementations ---------------------------------------------------------


def _cmd_check_phase(config: dict) -> int:
    phi = _resolve_phase(config)
    protocol = _protocol_from(config)
    report = check_admissible(phi, protocol)
    payload = {"phase": phi.source, "report": report.to_json()}
    if "out" in config:
        _write_json(config["out"], payload)
    print(json.dumps(payload["report"], sort_keys=True))
    return EXIT_OK


def _write_set_grid(config: dict, phi: PhaseFn, grid, protocol: ScanProtocol) -> None:
    _write_csv(config["out_csv"], grid.csv_header, grid.to_csv_rows())
    if "out_json" in config:
        _write_json(
            config["out_json"],
            {
                "phase": phi.source,
                "cells": len(grid.samples),
                "members": len(grid.member_cells(include_margin=False)),
                "protocol": protocol.echo(),
            },
        )


def _cmd_mphi(config: dict) -> int:
    phi = _resolve_phase(config)
    protocol = _protocol_from(config)
    pairs = _pair_grid(phi, config.get("grid", {}))
    _write_set_grid(config, phi, build_mphi_grid(phi, pairs, protocol), protocol)
    return EXIT_OK


def _cmd_spphi(config: dict) -> int:
    phi = _resolve_phase(config)
    protocol = _protocol_from(config)
    mpairs = _pair_grid(phi, config.get("grid", {}))
    mgrid = build_mphi_grid(phi, mpairs, protocol)
    spairs = _pair_grid(phi, config.get("grid", {}), covariable_dim=phi.d)
    sgrid = build_spphi_grid(phi, spairs, mgrid, protocol)
    _write_set_grid(config, phi, sgrid, protocol)
    return EXIT_OK


def _cmd_eval_oscint(config: dict) -> int:
    phi = _resolve_phase(config)
    a = _resolve_amplitude(config, phi)
    if config["testfn"] != "gauss":
        raise ValidationFailure("testfn must be 'gauss'", pointer="/testfn")
    f = SchwartzFn.gaussian(phi.d)
    box = tuple(config.get("box", (12.0, 12.0)))
    tol = config.get("tol", 1e-8)
    I = make_osc_integral(phi, a, r=config.get("r", "auto"), box=box, tol=tol)
    res = eval_pairing(I, f)
    payload = res.to_json()
    payload["protocol"] = DEFAULT_PROTOCOL.echo()
    if config.get("oracle"):
        payload["oracle"] = direct_quadrature(phi, a, f, box=box, tol=tol).to_json()
    if "out" in config:
        _write_json(config["out"], payload)
    print(json.dumps({"value_re": payload["value_re"], "value_im": payload["value_im"]}, sort_keys=True))
    return EXIT_OK


def _resolve_distribution(cfg: dict, dim_hint=None):
    if "catalog" in cfg:
        name = cfg["catalog"]
        kw = {k: v for k, v in cfg.items() if k != "catalog"}
        return cat.get_distribution(name, **kw)
    if "synth" in cfg:
        spec = PrescribedWfSpec.from_json(cfg["synth"])
        return make_prescribed(spec, cfg.get("dim", dim_hint or 1))
    raise ValidationFailure("distribution needs 'catalog' or 'synth'", "/distribution")


def _wf_protocol_from(config: dict, dim: int) -> WfProtocol:
    cfg = dict(config.get("protocol", {}))
    box = cfg.pop("box", 64.0 if dim == 1 else 16.0)
    ngrid = cfg.pop("ngrid", 4096 if dim == 1 else 256)
    n_dirs = cfg.pop("n_dirs", 2 if dim == 1 else 16)
    keys = {f.name for f in WfProtocol.__dataclass_fields__.values()}
    kw = {k: v for k, v in cfg.items() if k in keys and k != "dim"}
    for key in ("classical_centers", "finite_q"):
        if key in kw:
            kw[key] = tuple(tuple(v) for v in kw[key])
    if "r_subsets" in kw:
        kw["r_subsets"] = tuple(kw["r_subsets"])
    return WfProtocol.make(dim, box=box, ngrid=ngrid, n_dirs=n_dirs, **kw)


def _write_wf(config: dict, wf, **extra) -> None:
    _write_csv(config["out_csv"], wf.csv_header, wf.to_csv_rows())
    if "out_json" in config:
        _write_json(config["out_json"], {**wf.summary(), **extra})


def _cmd_wf_scan(config: dict) -> int:
    dist = _resolve_distribution(config["distribution"])
    protocol = _wf_protocol_from(config, dist.d)
    _write_wf(config, wf_scan(dist, protocol))
    return EXIT_OK


def _cmd_synth_wf(config: dict) -> int:
    spec = PrescribedWfSpec.from_json(config["spec"])
    dim = config["dim"]
    dist = make_prescribed(spec, dim)
    protocol = _wf_protocol_from(config, dim)
    _write_wf(config, wf_scan(dist, protocol), spec=spec.to_json())
    return EXIT_OK


def _cmd_fio_apply(config: dict) -> int:
    op_cfg = config["operator"]
    kind = op_cfg.get("type", "type1")
    if config["f"] != "gauss":
        raise ValidationFailure("f must be 'gauss'", pointer="/f")
    f = SchwartzFn.gaussian(1)
    lo, hi, n = config["grid"]
    xs = np.linspace(lo, hi, int(n))
    if kind == "fourier":
        op = fourier_half_operator(1, inverse=op_cfg.get("inverse", False))
        vals = op.apply(f, xs[None, :])
    elif kind == "type1":
        order = tuple(op_cfg.get("order", (1.0, 1.0)))
        phi_sym = parse_symbol_expr(op_cfg["phase"], (1, 1), order)
        amp = (
            cat.get_amplitude(op_cfg.get("amplitude", "one"), d=1, s=1)
            if op_cfg.get("amplitude", "one") in _CATALOG_AMPS
            else parse_symbol_expr(op_cfg["amplitude"], (1, 1), tuple(op_cfg.get("amp_order", (0, 0))))
        )
        outer = HalfOperator(phi=phi_sym, amplitude=amp, order=order)
        comp = compose(outer, fourier_half_operator(1))
        vals = comp.apply(f, xs[None, :])
    else:
        raise ValidationFailure(f"unknown operator type {kind!r}", "/operator/type")
    rows = [[f"{x:.12g}", f"{v.real:.12g}", f"{v.imag:.12g}"] for x, v in zip(xs, vals)]
    _write_csv(config["out"], ["x", "re", "im"], rows)
    return EXIT_OK


def _cmd_kg(config: dict) -> int:
    if config["f"] != "gauss":
        raise ValidationFailure("f must be 'gauss'", pointer="/f")
    f = SchwartzFn.gaussian(1)
    evo = kg_evolve(
        f, config["t"], c=config.get("c", 1.0), mass=config.get("mass", 1.0)
    )
    lo, hi, n = config["grid"]
    xs = np.linspace(lo, hi, int(n))
    vals = evo.values(config["t"], xs)
    rows = [[f"{x:.12g}", f"{v.real:.12g}", f"{v.imag:.12g}"] for x, v in zip(xs, vals)]
    _write_csv(config["out"], ["x", "re", "im"], rows)
    return EXIT_OK


def _cmd_catalog(config: dict) -> int:
    for row in cat.list_catalog():
        print(f"{row['id']:12s} {row['kind']:20s} {row['note']}")
    return EXIT_OK


_DISPATCH = {
    "check-phase": _cmd_check_phase,
    "mphi": _cmd_mphi,
    "spphi": _cmd_spphi,
    "eval-oscint": _cmd_eval_oscint,
    "wf-scan": _cmd_wf_scan,
    "synth-wf": _cmd_synth_wf,
    "fio-apply": _cmd_fio_apply,
    "kg": _cmd_kg,
    "catalog": _cmd_catalog,
}


def run(config: dict) -> int:
    """Validate and dispatch a job config; returns the exit code."""
    try:
        _validate(config)
    except ValidationFailure as e:
        print(
            json.dumps({"error": str(e), "pointer": e.pointer}, sort_keys=True),
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    try:
        return _DISPATCH[config["command"]](config)
    except ValidationFailure as e:
        print(
            json.dumps({"error": str(e), "pointer": e.pointer}, sort_keys=True),
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    except (ValueError, KeyError) as e:
        print(json.dumps({"error": str(e)}, sort_keys=True), file=sys.stderr)
        return EXIT_VALIDATION
    except (NonConvergenceError, IntegrabilityError, RegularizerRefused, FlagError) as e:
        diag = getattr(e, "diagnostic", {})
        print(
            json.dumps({"error": str(e), "diagnostic": diag}, sort_keys=True),
            file=sys.stderr,
        )
        return EXIT_NUMERICAL


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="sgosc", description=__doc__)
    sub = ap.add_subparsers(dest="sub", required=True)

    runp = sub.add_parser("run", help="run a JSON job config")
    runp.add_argument("--config", required=True)

    kgp = sub.add_parser("kg", help="Klein-Gordon evolution to CSV")
    kgp.add_argument("--t", type=float, required=True)
    kgp.add_argument("--mass", type=float, default=1.0)
    kgp.add_argument("--c", type=float, default=1.0)
    kgp.add_argument("--f", default="gauss")
    kgp.add_argument("--grid", default="-8:8:161", help="lo:hi:n")
    kgp.add_argument("--out", required=True)

    fap = sub.add_parser("fio-apply", help="apply an operator config")
    fap.add_argument("--config", required=True)
    fap.add_argument("--out", required=True)

    sub.add_parser("catalog", help="list built-in catalog entries")

    args = ap.parse_args(argv)
    if args.sub == "run":
        with open(args.config) as fh:
            return run(json.load(fh))
    if args.sub == "kg":
        lo, hi, n = args.grid.split(":")
        return run(
            {
                "command": "kg",
                "t": args.t,
                "mass": args.mass,
                "c": args.c,
                "f": args.f,
                "grid": [float(lo), float(hi), int(n)],
                "out": args.out,
            }
        )
    if args.sub == "fio-apply":
        with open(args.config) as fh:
            cfg = json.load(fh)
        cfg.setdefault("command", "fio-apply")
        cfg["out"] = args.out
        return run(cfg)
    if args.sub == "catalog":
        return run({"command": "catalog"})
    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
