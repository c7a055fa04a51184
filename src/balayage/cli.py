"""Command-line front end over JSON inputs with JSON/CSV reports.

Commands: hm, balayage, check, growth, potential, crg.  Complex numbers are
written "a,b" on the command line and {"re": a, "im": b} in JSON files.
Exit codes: 0 ok, 1 a checked bound failed, 2 bad input, 3 numeric failure.
JSON output is deterministic (sorted keys); file writes are atomic.

Each command is one entry of COMMANDS: the arguments it registers, a handler
that reads the parsed arguments and returns (report, holds), and its CSV
table, whose rows are read from the report.  The library checks the values
it is given; a handler checks option combinations, and a value only where no
library call checks it the same way.
"""

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
import tempfile
from typing import Callable, NamedTuple

import numpy as np

from .charges import (AtomicCharge, RayTestFunction, balayage_halfplane,
                      balayage_system, blaschke_halfplane,
                      blaschke_outside_system, check_fubini,
                      check_ges_bound, check_ges_bound_system,
                      check_lindelof_preservation, check_lipschitz,
                      check_thcup_bound, radial_counting)
from .errors import BadInput, BalayageError, NumericFailure
from .growth_scales import convergence_integral_zero, growth_report
from .harmonic_measure import (BoundarySegment, Interval, hm_bounds,
                               hm_interval, hm_interval_quad, hm_system,
                               hm_system_quad)
from .numerics import (IDENTITY_TOL, INPUT_ANGULAR_TOL, PAIRING_TOL, QUAD_TOL,
                       SWEEP_TOL)
from .ray_geometry import RaySystem
from .regular_growth import angular_density, crg_on_rays, exgr2_functionals
from .stepfn import StepFunction
from .subharmonic import (CanonicalPotential, GenusSchedule, carleman_check,
                          class_A_functionals, potential_eval,
                          subharmonic_balayage_eval, sweep_potential_eval)


# ---------------------------------------------------------------------------
# Argument parsing helpers (every conversion error becomes BadInput -> exit 2)


def _floats(text, n=None, what="value list"):
    try:
        vals = [float(p) for p in str(text).split(",")]
    except ValueError:
        raise BadInput(f"cannot parse {what} {text!r}")
    if n is not None and len(vals) != n:
        raise BadInput(f"{what} needs {n} comma-separated numbers, got {text!r}")
    return vals

def _complex(text):
    parts = _floats(text, what="complex number")
    if len(parts) == 1:
        return complex(parts[0], 0.0)
    if len(parts) == 2:
        return complex(parts[0], parts[1])
    raise BadInput(f"complex number must be 're,im', got {text!r}")

def _whole(x, what):
    if not x.is_integer():
        raise BadInput(f"{what} ray index must be a whole number, got {x}")
    return int(x)

def _tolerance(text):
    # BadInput is not one of the errors argparse turns into a usage message,
    # so it leaves parse_args and main reports it like any other: exit 2
    tol = float(text)
    if not tol > 0.0:
        raise BadInput(f"need --tol > 0, got {tol}")
    return tol

def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadInput(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise BadInput(f"malformed JSON in {path}: {exc}")

def _charge(path):
    data = _load_json(path)
    if not isinstance(data, dict) or "atoms" not in data:
        raise BadInput(f'{path}: charge JSON must be {{"atoms": [...]}}')
    try:
        return AtomicCharge.from_json(data)
    except (KeyError, TypeError) as exc:
        raise BadInput(f"{path}: bad atom entry ({exc})")

def _system(path):
    return RaySystem.from_json(_load_json(path))


# ---------------------------------------------------------------------------
# Output assembly


class Table(NamedTuple):
    """A CSV table: its header, and where its rows sit in the report.

    rows None: the report itself is the one row; a key: the report's list of
    row records under that key; a function: report -> rows, in header order."""

    header: tuple
    rows: object = None


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, complex):
        return {"im": x.imag, "re": x.real}
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        return x if math.isfinite(x) else repr(x)
    if isinstance(x, str):
        return x
    return str(x)

def _json_text(report):
    return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"

def _cell(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, complex):
        return f"{v.real!r}+{v.imag!r}j"
    return v

def _csv_text(table, report):
    header, rows = table
    if rows is None or isinstance(rows, str):
        records = [report] if rows is None else report[rows]
        rows = [[rec[h] for h in header] for rec in records]
    else:
        rows = rows(report)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()

def _atomic_write(path, text):
    path = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".job_",
                               suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# hm


def _hm_arguments(p):
    p.add_argument("--z", required=True, help="evaluation point 're,im'")
    p.add_argument("--interval", help="real interval 't1,t2' (half-plane mode)")
    p.add_argument("--system", help="ray-system JSON path")
    p.add_argument("--disk", type=float, help="origin disk radius (system mode)")
    p.add_argument("--segment", action="append",
                   help="ray segment 'j,a,b' (repeatable, system mode)")
    p.add_argument("--a", type=float, default=0.5, help="bound parameter a")
    p.add_argument("--b", type=float, default=2.0, help="bound parameter b")
    p.add_argument("--tol", type=_tolerance, default=QUAD_TOL,
                   help=f"accuracy asked of the quadrature oracle (default {QUAD_TOL})")

def cmd_hm(args):
    z = _complex(args.z)
    if (args.interval is None) == (args.system is None):
        raise BadInput("hm needs exactly one of --interval or --system")
    report = {"command": "hm", "z": z}
    if args.interval is not None:
        if args.disk is not None or args.segment:
            raise BadInput("--disk/--segment apply only with --system")
        I = Interval(*_floats(args.interval, 2, "--interval"))
        bounds = hm_bounds(z, I, a=args.a, b=args.b)
        exact = hm_interval(z, I)
        oracle = hm_interval_quad(z, I, tol=args.tol)
        report.update(interval=[I.t1, I.t2], exact=exact, oracle=oracle,
                      difference=abs(exact - oracle),
                      bounds={"entries": [{"name": e.name, "side": e.side,
                                           "value": e.value,
                                           "hypothesis": e.hypothesis,
                                           "holds": e.holds}
                                          for e in bounds.entries],
                              "skipped": [list(s) for s in bounds.skipped],
                              "all_hold": bounds.all_hold})
        return report, bounds.all_hold
    if args.disk is None and not args.segment:
        raise BadInput("--system mode needs --disk and/or --segment")
    segs = []
    for spec in args.segment or []:
        j, a, b = _floats(spec, 3, "--segment")
        segs.append(BoundarySegment(_whole(j, "segment"), a, b))
    S = _system(args.system)
    exact = hm_system(S, z, segments=segs, disk=args.disk)
    oracle = hm_system_quad(S, z, segs, args.disk, args.tol)
    report.update(system=S.to_json(), disk=args.disk,
                  segments=[[s.ray_index, s.a, s.b] for s in segs],
                  exact=exact, oracle=oracle, difference=abs(exact - oracle))
    return report, None

def _hm_rows(report):
    rows = [("exact", "", report["exact"], "", True),
            ("oracle", "", report["oracle"], "", True)]
    entries = report["bounds"]["entries"] if "bounds" in report else []
    return rows + [(e["name"], e["side"], e["value"], e["hypothesis"], e["holds"])
                   for e in entries]


# ---------------------------------------------------------------------------
# balayage


def _balayage_arguments(p):
    p.add_argument("--charge", required=True, help="charge JSON path")
    p.add_argument("--system", help="ray-system JSON path (default: "
                                    "upper half-plane onto R)")
    p.add_argument("--samples", type=int, default=80,
                   help="samples per ray (default 80)")
    p.add_argument("--xmax", type=float, help="sampling radius "
                                              "(default 4*max atom radius)")
    p.add_argument("--variation", action="store_true",
                   help="sample the variation distribution |nu|^bal")

def cmd_balayage(args):
    if args.samples < 2:
        raise BadInput(f"need --samples >= 2, got {args.samples}")
    if args.xmax is not None and not args.xmax > 0.0:
        raise BadInput(f"need --xmax > 0, got {args.xmax}")
    nu = _charge(args.charge)
    if args.system is not None:
        bal = balayage_system(nu, _system(args.system))
    else:
        bal = balayage_halfplane(nu)
    xmax = args.xmax
    if xmax is None:
        xmax = 4.0 * max([1.0] + [abs(z) for z, _ in nu.atoms])
    n = args.samples
    samples = [{"ray": j, "theta": theta, "x": x,
                "mass": bal.ray_distribution(j, x, args.variation)}
               for j, theta in enumerate(bal.rays.thetas)
               for x in (xmax * i / n for i in range(1, n + 1))]
    report = {"command": "balayage", "charge": nu.to_json(),
              "balayage": bal.to_json(), "total_mass": bal.total_mass,
              "variation": args.variation, "samples": samples}
    return report, None


# ---------------------------------------------------------------------------
# check: each named check returns (report, holds) and has its own table


def _check_blaschke(args, nu):
    if args.system:
        S = _system(args.system)
        sums = blaschke_outside_system(nu, S, args.r0)
        return {"sectors": [{"alpha": sec.alpha, "beta": sec.beta,
                             "exponent": sec.exponent, "sum": sums[i]}
                            for i, sec in enumerate(S.sectors)],
                "total": math.fsum(sums.values())}, None
    return {"halfplane_sum": blaschke_halfplane(nu, args.r0)}, None

def _blaschke_rows(report):
    if "sectors" in report:
        return [[s[k] for k in ("alpha", "beta", "exponent", "sum")]
                for s in report["sectors"]]
    return [(0.0, math.pi, 1.0, report["halfplane_sum"])]

def _check_carleman(args, nu):
    tol = IDENTITY_TOL if args.tol is None else args.tol
    P = CanonicalPotential(nu, genus=-1)
    res = carleman_check(nu, lambda z: potential_eval(P, z), args.r0, args.r,
                         tol=tol)
    return {"lhs": res.lhs, "rhs": res.rhs, "residual": res.detail["residual"],
            "tol": tol, "holds": res.holds}, res.holds

def _check_thcup(args, nu):
    res = check_thcup_bound(nu, args.t1, args.t2, args.a)
    return {"lhs": res.lhs, "rhs": res.rhs, "holds": res.holds,
            "terms": res.detail}, res.holds

def _check_ges(args, nu):
    gauge = lambda s: args.gauge_scale * s
    if args.system:
        res = check_ges_bound_system(nu, _system(args.system), gauge, args.r)
    else:
        res = check_ges_bound(nu, gauge, args.r)
    return {"lhs": res.lhs, "rhs": res.rhs, "holds": res.holds,
            "gauge_scale": args.gauge_scale, "detail": res.detail}, res.holds

def _check_lipschitz(args, nu):
    rep = check_lipschitz(nu, args.x1, args.x2, n_grid=args.n_grid, p=args.p)
    finite = math.isfinite(rep.modulus)
    return {"modulus": rep.modulus, "grid_step": rep.grid_step,
            "fitted_b": rep.fitted_b, "finite": finite}, finite

def _check_fubini(args, nu):
    if not args.system:
        raise BadInput("check fubini needs --system")
    tents = []
    for spec in args.tent or []:
        j, t0, t1, t2 = _floats(spec, 4, "--tent")
        if not 0.0 <= t0 < t1 < t2:
            raise BadInput(f"tent needs 0 <= t0 < t1 < t2, got {spec!r}")
        tents.append((_whole(j, "tent"), t0, t1, t2))
    S = _system(args.system)
    if not tents:
        tents = [(k, 0.5, 1.0, 2.0) for k in range(len(S.thetas))]
    breakpoints = {}
    for j, t0, t1, t2 in tents:
        breakpoints.setdefault(j, []).extend([(t0, 0.0), (t1, 1.0), (t2, 0.0)])
    tol = PAIRING_TOL if args.tol is None else args.tol
    res = check_fubini(nu, S, RayTestFunction(S, breakpoints), tol=tol)
    return {"lhs": res.lhs, "rhs": res.rhs, "difference": res.detail["difference"],
            "tol": tol, "holds": res.holds}, res.holds

def _check_lindelof(args, nu):
    if not args.system:
        raise BadInput("check lindelof needs --system")
    kwargs = {}
    if args.radii:
        radii = _floats(args.radii, what="--radii")
        if len(radii) < 2 or any(not args.r0 < a < b
                                 for a, b in zip(radii, radii[1:])):
            raise BadInput("--radii must increase and exceed r0")
        kwargs["radii"] = tuple(radii)
    rep = check_lindelof_preservation(nu, _system(args.system), args.q,
                                      r0=args.r0, **kwargs)
    return rep, rep["bounded"]

def _check_classa(args, nu):
    # stricter than the library's 0 < beta - alpha <= 2*pi by an ulp or two
    if not args.alpha < args.beta <= args.alpha + 2.0 * math.pi:
        raise BadInput(f"need alpha < beta <= alpha + 2*pi, got "
                       f"({args.alpha}, {args.beta})")
    tol = IDENTITY_TOL if args.tol is None else args.tol
    P = CanonicalPotential(nu, genus=-1)
    res = class_A_functionals(lambda z: potential_eval(P, z),
                              args.alpha, args.beta, args.r0, args.r)
    holds = res.residual_J <= tol and res.residual_double <= tol
    return {"A": res.A, "B": res.B, "J": res.J, "A_via_J": res.A_via_J,
            "A_via_double": res.A_via_double, "residual_J": res.residual_J,
            "residual_double": res.residual_double, "tol": tol,
            "holds": holds}, holds


_SUMS = Table(("lhs", "rhs", "holds"))
_CHECKS = {
    "blaschke": (_check_blaschke, Table(("alpha", "beta", "exponent", "sum"),
                                        _blaschke_rows)),
    "carleman": (_check_carleman, Table(("lhs", "rhs", "residual", "holds"))),
    "thcup": (_check_thcup, _SUMS),
    "ges": (_check_ges, _SUMS),
    "lipschitz": (_check_lipschitz, Table(("modulus", "grid_step", "fitted_b"))),
    "fubini": (_check_fubini, Table(("lhs", "rhs", "difference", "holds"))),
    "lindelof": (_check_lindelof, Table(
        ("radius", "difference"),
        lambda report: zip(report["radii"], report["differences"]))),
    "classa": (_check_classa, Table(("A", "B", "J", "residual_J",
                                     "residual_double", "holds"))),
}

def _check_arguments(p):
    p.add_argument("name", choices=sorted(_CHECKS), help="which check to run")
    p.add_argument("--charge", required=True, help="charge JSON path")
    p.add_argument("--system", help="ray-system JSON path")
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--r", type=float, default=10.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--t2", type=float, default=2.0)
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=math.pi)
    p.add_argument("--x1", type=float, default=1.0)
    p.add_argument("--x2", type=float, default=2.0)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--p", type=float, help="comparison order of lipschitz")
    p.add_argument("--n-grid", type=int, default=200)
    p.add_argument("--gauge-scale", type=float, default=2.0,
                   help="gauge g(r) = scale*r for the ges check")
    p.add_argument("--radii", help="comma-separated radius grid")
    p.add_argument("--tent", action="append",
                   help="test-function tent 'j,t0,t1,t2' for fubini")
    p.add_argument("--tol", type=_tolerance,
                   help=f"residual tolerance of carleman and classa (default "
                        f"{IDENTITY_TOL}) and of fubini (default {PAIRING_TOL})")

def cmd_check(args):
    if args.tol is not None and args.name not in ("carleman", "classa", "fubini"):
        raise BadInput(f"check {args.name} takes no --tol")
    if args.p is not None and args.name != "lipschitz":
        raise BadInput(f"check {args.name} takes no --p")
    run, _ = _CHECKS[args.name]
    report, holds = run(args, _charge(args.charge))
    return {"command": "check", "check": args.name, **report}, holds


# ---------------------------------------------------------------------------
# growth


def _growth_arguments(p):
    p.add_argument("--charge", required=True, help="charge JSON path")
    p.add_argument("--p", type=float, required=True, help="comparison order")
    p.add_argument("--r-lo", type=float, help="window start")
    p.add_argument("--r-hi", type=float, help="window end")
    p.add_argument("--r0", type=float, help="zero-side radius")
    p.add_argument("--signed", action="store_true",
                   help="use the signed counting function")
    p.add_argument("--zero-side", action="store_true",
                   help="also report the zero-side integrals")

def cmd_growth(args):
    # the library takes p = 0, and reads --r0 only with --zero-side
    if not args.p > 0.0:
        raise BadInput(f"need --p > 0, got {args.p}")
    if args.r0 is not None and not args.r0 > 0.0:
        raise BadInput(f"need --r0 > 0, got {args.r0}")
    nu = _charge(args.charge)
    if not nu.atoms:
        raise BadInput("growth analysis needs a nonempty charge")
    f = radial_counting(nu, variation=not args.signed)
    r_lo, r_hi = args.r_lo, args.r_hi
    if r_lo is None:
        r_lo = 2.0 * float(f.points[0]) if f.points[0] > 0.0 else 1.0
    if r_hi is None:
        r_hi = max(2.0 * float(f.points[-1]), 4.0 * r_lo)
    rep = growth_report(f, args.p, r_lo, r_hi)
    conv = rep.convergence
    report = {"command": "growth", "p": args.p, "window": [r_lo, r_hi],
              "order_estimate": rep.order_estimate,
              "type_estimate": rep.type_estimate,
              # type_at raises for a non-finite type; the key stays in the
              # report, which perfbench/reference/growth_scan.json records
              "type_is_finite": True,
              "convergence": {"value": conv.value, "trend": conv.trend,
                              "stieltjes_tail": conv.stieltjes_tail,
                              "parts_residual": conv.parts_residual,
                              "samples": [list(s) for s in conv.samples]}}
    if args.zero_side:
        z = convergence_integral_zero(f, args.p, r_lo if args.r0 is None else args.r0)
        report["zero_side"] = {"value": z.value, "f_log_limit": z.f_log_limit,
                               "log_stieltjes": z.log_stieltjes,
                               "poch_residual": z.poch_residual,
                               "log_residual": z.log_residual}
    return report, None


# ---------------------------------------------------------------------------
# potential


def _potential_arguments(p):
    p.add_argument("--charge", required=True, help="charge JSON path")
    p.add_argument("--z", action="append", help="evaluation point 're,im' "
                                                "(repeatable)")
    p.add_argument("--genus", type=int, help="kernel genus >= -1 (default -1)")
    p.add_argument("--schedule", help="genus-schedule JSON path")
    p.add_argument("--harmonic", help="harmonic polynomial coefficients "
                                      "'c0,c1,...'")
    p.add_argument("--sweep", action="store_true",
                   help="also evaluate the sweep onto --system")
    p.add_argument("--system", help="ray-system JSON path (with --sweep)")
    p.add_argument("--rmax", type=float, default=1e8,
                   help="truncation radius for the sweep integral")
    p.add_argument("--tol", type=_tolerance, default=SWEEP_TOL,
                   help=f"tail tolerance of the sweep (default {SWEEP_TOL})")

def cmd_potential(args):
    if not args.z:
        raise BadInput("potential needs at least one --z")
    zs = [_complex(t) for t in args.z]
    if args.schedule is not None and args.genus is not None:
        raise BadInput("give --genus or --schedule, not both")
    harmonic = _floats(args.harmonic, what="--harmonic") if args.harmonic else []
    if args.sweep:
        if args.system is None:
            raise BadInput("--sweep needs --system")
        if args.schedule is not None or harmonic:
            raise BadInput("--sweep works with a single --genus, not a schedule "
                           "or --harmonic")
        if not args.rmax > 1.0:
            raise BadInput(f"need --rmax > 1, got {args.rmax}")
    nu = _charge(args.charge)
    if args.schedule is not None:
        genus = None
        P = CanonicalPotential(nu, harmonic_coeffs=harmonic, schedule=(
            GenusSchedule.from_json(_load_json(args.schedule))))
    else:
        genus = -1 if args.genus is None else args.genus
        P = CanonicalPotential(nu, genus=genus, harmonic_coeffs=harmonic)
    if args.sweep:
        S = _system(args.system)
        bal = balayage_system(nu, S)
    values = []
    for z in zs:
        entry = {"z": z, "value": potential_eval(P, z)}
        if args.sweep:
            route = sweep_potential_eval(bal, z, genus=genus)
            swept = subharmonic_balayage_eval(
                lambda w: potential_eval(P, w), S, z, R_max=args.rmax, tol=args.tol)
            entry.update(swept=swept, swept_charge_route=route,
                         route_difference=abs(swept - route))
        values.append(entry)
    return {"command": "potential", "genus": genus, "harmonic_coeffs": harmonic,
            "values": values}, None


# ---------------------------------------------------------------------------
# crg


def _crg_arguments(p):
    p.add_argument("--charge", required=True, help="charge JSON path "
                                                   "(atoms on the rays)")
    p.add_argument("--system", required=True, help="ray-system JSON path")
    p.add_argument("--p", type=float, required=True, help="growth order")
    p.add_argument("--radii", help="comma-separated radius grid")
    p.add_argument("--truncation", type=float,
                   help="declared truncation radius of the data")
    p.add_argument("--stability-tol", type=float, default=0.05)
    p.add_argument("--drop", type=float, default=0.05,
                   help="fraction of radii allowed exceptional")
    p.add_argument("--angular", help="sector 'alpha,beta' for the angular "
                                     "density table")
    p.add_argument("--exgr2", action="store_true",
                   help="bisector functionals (four-ray systems)")

def _counts_by_ray(nu, S):
    events = [[] for _ in S.thetas]
    for z, m in nu.atoms:
        if z == 0:
            raise BadInput("an origin atom lies on every ray; remove it first")
        j = S.ray_index(z, tol=INPUT_ANGULAR_TOL)
        if j is None:
            raise BadInput(f"atom at {z} is not on the ray system")
        events[j].append((abs(z), m))
    return [StepFunction.from_events(ev) for ev in events]

def cmd_crg(args):
    radii = _floats(args.radii, what="--radii") if args.radii else None
    if radii is not None and any(not 0.0 < a < b for a, b in zip(radii, radii[1:])):
        raise BadInput("--radii must be positive and increasing")
    # the library reads the truncation only when it picks the radii
    if args.truncation is not None and not args.truncation > 1.0:
        raise BadInput(f"need --truncation > 1, got {args.truncation}")
    if not 0.0 < args.stability_tol < 1.0:
        raise BadInput(f"need 0 < --stability-tol < 1, got {args.stability_tol}")
    if not 0.0 <= args.drop < 1.0:
        raise BadInput(f"need 0 <= --drop < 1, got {args.drop}")
    if args.angular is not None:
        alpha, beta = _floats(args.angular, 2, "--angular")
        # angular_density allows an aperture up to 2*pi + ANGULAR_TOL
        if not alpha < beta <= alpha + 2.0 * math.pi:
            raise BadInput(f"need alpha < beta <= alpha + 2*pi, got {args.angular!r}")
    nu = _charge(args.charge)
    S = _system(args.system)
    counts = _counts_by_ray(nu, S)
    rep = crg_on_rays(counts, list(S.thetas), args.p, radii=radii,
                      tol=args.stability_tol, drop_fraction=args.drop,
                      truncation=args.truncation)
    report = {"command": "crg", "p": args.p, **rep.to_json()}
    if args.angular is not None:
        report["angular"] = angular_density(nu, alpha, beta, args.p)
    if args.exgr2:
        if len(S.thetas) != 4:
            raise BadInput("--exgr2 needs a four-ray system")
        report["exgr2"] = exgr2_functionals(counts)
    return report, None

def _crg_rows(report):
    return [(ray["theta"], r, v, ray["stable"]) for ray in report["rays"]
            for r, v in zip(ray["radii"], ray["values"])]


# ---------------------------------------------------------------------------
# The command table and the entry point


class Command(NamedTuple):
    """A subcommand: its help line, the function that registers its
    arguments, its handler (parsed arguments -> (report, holds); holds None
    when the command checks nothing), and its CSV table, or a function of
    the parsed arguments that returns the table."""

    help: str
    arguments: Callable
    run: Callable
    table: object


COMMANDS = {
    "hm": Command("harmonic measure of an interval or a boundary set of a "
                  "ray-system complement", _hm_arguments, cmd_hm,
                  Table(("kind", "side", "value", "hypothesis", "holds"), _hm_rows)),
    "balayage": Command("sweep a charge onto R or a ray system; emit swept "
                        "charge and distribution samples", _balayage_arguments,
                        cmd_balayage, Table(("ray", "theta", "x", "mass"), "samples")),
    "check": Command("run a named verification", _check_arguments, cmd_check,
                     lambda args: _CHECKS[args.name][1]),
    "growth": Command("order/type/convergence diagnostics of a charge's "
                      "counting function", _growth_arguments, cmd_growth,
                      Table(("radius", "integral"),
                            lambda report: report["convergence"]["samples"])),
    "potential": Command("evaluate a canonical potential (optionally its "
                         "sweep) at points", _potential_arguments, cmd_potential,
                         lambda args: Table(("z", "value", "swept", "swept_charge_route")
                                            if args.sweep else ("z", "value"), "values")),
    "crg": Command("radial-limit run over a ray system (regular-growth "
                   "diagnostics)", _crg_arguments, cmd_crg,
                   Table(("theta", "radius", "value", "stable"), _crg_rows)),
}


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args reads it and
    never changes it, and every parse starts from a fresh Namespace."""
    ap = argparse.ArgumentParser(
        prog="balayage",
        description="Sweeping of charges and potentials onto ray systems: "
                    "harmonic measure, bound checks, growth scales, and "
                    "radial-limit diagnostics.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        command.arguments(p)
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--seed", type=int, help="recorded in the report")
        grp = p.add_mutually_exclusive_group()
        grp.add_argument("--json", action="store_true", help="JSON report (default)")
        grp.add_argument("--csv", action="store_true", help="CSV table")
    return ap


def _emit(args, report, table):
    if args.seed is not None:
        report = {**report, "seed": args.seed}
    if args.command == "balayage" and args.out:
        base = re.sub(r"\.(json|csv)$", "", args.out)
        _atomic_write(base + ".json", _json_text(report))
        _atomic_write(base + ".csv", _csv_text(table, report))
        return
    text = _csv_text(table, report) if args.csv else _json_text(report)
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        command = COMMANDS[args.command]
        # the library turns an overflowing value into inf or NumericFailure itself
        with np.errstate(over="ignore", invalid="ignore"):
            report, holds = command.run(args)
        table = command.table(args) if callable(command.table) else command.table
        _emit(args, report, table)
    except NumericFailure as exc:  # first: PowerMapUnderflow is also a BadInput
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (BalayageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if holds in (None, True) else 1


if __name__ == "__main__":
    sys.exit(main())
