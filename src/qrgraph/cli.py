"""Command-line interface: load/validate/compute/report over all modules.

Each ``cmd_*`` returns ``(inputs, results, certificates, exit_code)`` and
writes only its side files.  ``main`` starts the clock, maps exceptions to
exit codes and writes every report: ``validate.json``, ``gen.json`` or
``report.json``.  Exit codes: 0 ok, 2 validation failure, 3 resource cap
exceeded, 64 usage.  Reports are JSON with a schema_version, input digests,
and a seed; repeated runs with the same seed are byte-identical except for
the wall-time field.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from ._tol import TOL
from .certificates import Certificate, _jsonable
from .covering import load_map, map_to_json
from .dilatation import (
    bdd_verify,
    bld_verify,
    bqs_gauge,
    dilatation_profile,
    inverse_dilatation_profile,
    lq_verify,
)
from .embedding import composition_bound_check, embed, fiber_scale_check
from .generators import (
    gen_cycle,
    gen_cycle_cover,
    gen_grid,
    gen_polar_grid,
    gen_pullback_space,
    gen_winding,
)
from .measures import (
    change_of_variables_check,
    condition_N_check,
    condition_N_inverse_check,
    jacobians,
    pullback_measure,
)
from .modulus import CurveFamily, modulus
from .pullback import (EXACT_CAP_DEFAULT, ResourceCapExceeded, bld_bdd_transfer_check,
                       factorize, verify_projection)
from .spaces import (Curve, ValidationError, _is_number, _read_json, load_space,
                     space_from_json, space_to_json)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _report(args, inputs: list[str], results, certificates: list[Certificate], t0: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": args.command,
        "inputs": {os.path.basename(p): _digest(p) for p in inputs},
        "seed": getattr(args, "seed", 0),
        "results": _jsonable(results),
        "certificates": [c.to_json() for c in certificates],
        "wall_time_s": time.time() - t0,
    }


def _write(out: str, name: str, text: str) -> None:
    """The one writer of every output file: make ``out``, write, print the path."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w") as fh:
        fh.write(text)
    print(path)


def _write_json(out: str, name: str, obj, indent: int | None = None) -> None:
    _write(out, name, json.dumps(obj, sort_keys=True, indent=indent) + "\n")


def _write_csv(out: str, name: str, header: list[str], rows: list[list]) -> None:
    lines = ([repr(x) if isinstance(x, float) else str(x) for x in row] for row in [header, *rows])
    _write(out, name, "".join(",".join(line) + "\n" for line in lines))


def _load_any(path: str):
    obj = _read_json(path)
    if isinstance(obj, dict) and "pairs" in obj:
        return "map", load_map(path)
    return "space", space_from_json(obj)


def cmd_validate(args):
    try:
        kind, _loaded = _load_any(args.file)
    except ValidationError as exc:
        raise ValidationError([f"invalid: {exc}"]) from None
    # loading validates: Space.build and VertexMap raise on any finding
    return [args.file], {"kind": kind, "findings": []}, [], EXIT_OK


def cmd_gen(args):
    if args.kind in ("winding", "cycle_cover"):
        vm = (gen_winding(args.k, args.levels, args.sectors) if args.kind == "winding"
              else gen_cycle_cover(args.n, args.m))
        files = {"source.json": space_to_json(vm.source), "target.json": space_to_json(vm.target),
                 "map.json": map_to_json(vm, "source.json", "target.json")}
    else:
        if args.kind == "cycle":
            sp = gen_cycle(args.n)
        elif args.kind == "grid":
            sp = gen_grid(args.w, args.h)
        elif args.kind == "polar_grid":
            sp = gen_polar_grid(args.levels, args.sectors, args.r0, args.r1)
        else:  # pullback_space
            sp = gen_pullback_space(load_map(args.map), cap=args.exact_cap)
        files = {"space.json": space_to_json(sp)}
    for name, obj in files.items():
        _write_json(args.out, name, obj)
    return [], {"written": list(files)}, [], EXIT_OK


def cmd_pullback(args):
    vm = load_map(args.map)
    fact = factorize(vm, metric=args.metric, cap=args.exact_cap)
    cert = verify_projection(fact)
    transfer = bld_bdd_transfer_check(fact, seed=args.seed)
    mat = fact.pullback_space.dist
    ids = fact.pullback_space.ids
    _write_csv(args.out, "pullback_matrix.csv", ["id", *ids],
               [[ids[i], *[float(x) for x in mat[i]]] for i in range(len(ids))])
    results = {
        "metric": fact.metric_choice,
        "exact": fact.bracket.exact,
        "vertices": len(ids),
    }
    return [args.map], results, [cert, transfer], EXIT_OK if cert.passed else EXIT_VALIDATION


def cmd_measure(args):
    vm = load_map(args.map)
    pm = pullback_measure(vm)
    jf = jacobians(vm)
    rows = [[vm.source.ids[k], float(pm.values[k]), float(jf.jac[k]), float(jf.jac_inv[k])]
            for k in range(vm.source.n)]
    _write_csv(args.out, "jacobians.csv",
               ["vertex", "pullback_mass", "jacobian", "jacobian_inv"], rows)
    rng = np.random.default_rng(args.seed)
    rho = rng.random(vm.source.n)
    certs = [
        change_of_variables_check(vm, rho),
        condition_N_check(vm),
        condition_N_inverse_check(vm),
    ]
    results = {"total_pullback_mass": pm.total()}
    return [args.map], results, certs, EXIT_OK if all(c.passed for c in certs) else EXIT_VALIDATION


def _family_from_json(space, obj) -> CurveFamily:
    """A connecting spec or a list of curves; a missing E or F and every
    unknown vertex id are findings."""
    findings: list[str] = []

    def known(ids, where: str):
        if not isinstance(ids, list):
            findings.append(f"{where} must be a list of vertex ids")
            return
        bad = [v for v in ids if not (isinstance(v, str) and v in space.index)]
        if bad:
            findings.append(f"unknown vertex ids in {where}: {bad}")

    if isinstance(obj, dict) and "connect" in obj:
        spec = obj["connect"]
        if not isinstance(spec, dict) or not {"E", "F"} <= set(spec):
            raise ValidationError(["connect family needs E and F"])
        for key in ("E", "F", "within"):
            if spec.get(key) is not None:
                known(spec[key], key)
        if findings:
            raise ValidationError(findings)
        return CurveFamily.connecting(space, spec["E"], spec["F"], spec.get("within"))
    curves = obj.get("curves") if isinstance(obj, dict) else obj
    if not isinstance(curves, list):
        raise ValidationError(["family needs a connect spec or a list of curves"])
    for k, c in enumerate(curves):
        known(c, f"curves[{k}]")
    if findings:
        raise ValidationError(findings)
    return CurveFamily.explicit(space, [Curve.from_ids(space, c) for c in curves])


def cmd_modulus(args):
    space = load_space(args.space)
    fam = _family_from_json(space, _read_json(args.family))
    weight = None if args.weight is None else _read_json(args.weight)
    if weight is not None and not (isinstance(weight, dict) and set(space.ids) <= set(weight)
                                   and all(_is_number(weight[v]) for v in space.ids)):
        raise ValidationError([f"{args.weight}: must map every vertex id to a number"])
    res = modulus(fam, p=args.p, weight=weight, tol=args.tol, max_iter=args.max_iter)
    rows = [[f"{space.ids[i]}-{space.ids[j]}", float(res.density.values[e])]
            for e, (i, j, _ln) in enumerate(space.edges)]
    _write_csv(args.out, "density.csv", ["edge", "rho"], rows)
    results = {
        "value": res.value, "gap": res.gap, "p": res.p,
        "iterations": res.iterations, "exact": res.exact, "flags": list(res.flags),
    }
    return [args.space, args.family], results, [], EXIT_OK


def cmd_verify(args):
    vm = load_map(args.map)
    prop = args.property
    if prop == "bld":
        cert = bld_verify(vm, bound=args.constant, seed=args.seed)
    elif prop == "bdd":
        cert = bdd_verify(vm, bound=args.constant, seed=args.seed)
    elif prop == "lq":
        cert = lq_verify(vm, bound=args.constant)
    elif prop in ("metric-qr", "inverse-qr"):
        inverse = prop == "inverse-qr"
        profile = inverse_dilatation_profile if inverse else dilatation_profile
        rows = {}
        worst = 1.0
        for x in range(vm.source.n):
            prof = profile(vm, x, args.radius_cap)  # the radius or scale cap
            rows[vm.source.ids[x]] = {"H": prof.h_sup, "h": prof.h_inf, "cap": prof.cap,
                                      "flags": list(prof.flags)}
            worst = max(worst, prof.h_sup)
        passed = args.constant is None or worst <= args.constant + 1e-9
        cert = Certificate("inverse_metric_qr" if inverse else "metric_qr",
                           passed and math.isfinite(worst), constant=worst,
                           details={"profiles": rows})
    else:  # bqs
        gauge = bqs_gauge(vm, seed=args.seed)
        cert = Certificate("bqs_gauge", True, details={"gauge": gauge.pairs(),
                                                       "seed": gauge.seed})
    return [args.map], {"property": prop}, [cert], EXIT_OK if cert.passed else EXIT_VALIDATION


def cmd_embed(args):
    vm = load_map(args.map)
    res = embed(vm, cap=args.exact_cap)
    rows = [[v, res.image[v], *[float(c) for c in res.coords[v]]] for v in sorted(res.coords)]
    width = max((len(r) - 2 for r in rows), default=0)
    _write_csv(args.out, "coordinates.csv",
               ["vertex", "image", *[f"c{k}" for k in range(width)]], rows)
    certs = []
    if res.plan is not None:
        certs = [fiber_scale_check(res.plan), composition_bound_check(res)]
        _write_json(args.out, "plan.json", {
            "N": res.plan.n_mult,
            "c_d": res.plan.c_d,
            "radii": _jsonable(res.plan.rk),
            "nets": _jsonable(res.plan.nets),
            "classes": _jsonable(res.plan.classes),
            "labels": _jsonable(res.plan.labels),
        }, indent=2)
    results = {
        "injective": res.injective,
        "lower": res.lower,
        "upper": res.upper,
        "phi_lipschitz": res.phi_lipschitz,
        "fiber_pairs": len(res.fiber_report),
        "twelve_rule": all(r["twelve_rule"] for r in res.fiber_report),
    }
    return [args.map], results, certs, EXIT_OK if res.injective else EXIT_VALIDATION


def _radius_cap(text: str) -> float:
    """A radius cap above TOL; NaN and smaller values leave every
    neighbourhood without its own centre."""
    value = float(text)
    if not value > TOL:
        raise argparse.ArgumentTypeError(f"radius cap must exceed {TOL}: {text}")
    return value


def main(argv=None) -> int:
    parser = _Parser(prog="qrgraph",
                     description="pullback metrics, discrete modulus and "
                                 "quasiregularity certificates on finite graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)

    def exact_cap(p):
        p.add_argument("--exact-cap", type=int, default=EXACT_CAP_DEFAULT,
                       help="vertex cap for the exact pullback solver")

    p = sub.add_parser("validate", help="validate a space or map JSON file")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("gen", help="generate canonical spaces and maps")
    p.add_argument("--kind", required=True,
                   choices=["cycle", "grid", "polar_grid", "winding", "cycle_cover",
                            "pullback_space"])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--w", type=int, default=4)
    p.add_argument("--h", type=int, default=4)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--sectors", type=int, default=8)
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--r1", type=float, default=math.e)
    p.add_argument("--map", default=None, help="input map for pullback_space")
    common(p)
    exact_cap(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("pullback", help="pullback metric and factorization report")
    p.add_argument("--map", required=True)
    p.add_argument("--metric", choices=["exact", "lower"], default="exact")
    common(p)
    exact_cap(p)
    p.set_defaults(fn=cmd_pullback)

    p = sub.add_parser("measure", help="pullback measure, Jacobians, conditions N")
    p.add_argument("--map", required=True)
    common(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("modulus", help="discrete p-modulus of a curve family")
    p.add_argument("--space", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--weight", default=None,
                   help="JSON file of vertex weights (e.g. a K_O/K_I field) "
                        "for the weighted modulus")
    p.add_argument("--tol", type=float, default=1e-6)
    common(p)
    p.set_defaults(fn=cmd_modulus)

    p = sub.add_parser("verify", help="dilatation/BLD/BDD/LQ/BQS certificates")
    p.add_argument("--map", required=True)
    p.add_argument("--property", required=True,
                   choices=["bld", "bdd", "lq", "metric-qr", "inverse-qr", "bqs"])
    p.add_argument("--constant", type=float, default=None)
    p.add_argument("--radius-cap", type=_radius_cap, default=None,
                   help="radius (metric-qr) or scale (inverse-qr) cap; "
                        "a number above 1e-9, or inf")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("embed", help="bi-Lipschitz embedding pipeline")
    p.add_argument("--map", required=True)
    common(p)
    exact_cap(p)
    p.set_defaults(fn=cmd_embed)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.time()
    try:
        inputs, results, certificates, code = args.fn(args)
    except (ValidationError, FileNotFoundError, ResourceCapExceeded) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_RESOURCE if isinstance(exc, ResourceCapExceeded) else EXIT_VALIDATION
    name = {"validate": "validate.json", "gen": "gen.json"}.get(args.command, "report.json")
    _write_json(args.out, name, _report(args, inputs, results, certificates, t0), indent=2)
    return code


if __name__ == "__main__":
    sys.exit(main())
