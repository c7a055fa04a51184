"""Command-line front end over JSON inputs with JSON/CSV reports.

Commands: hm, balayage, check, growth, potential, crg.  Complex numbers are
written "a,b" on the command line and {"re": a, "im": b} in JSON files.
Exit codes: 0 ok, 1 a checked bound failed, 2 bad input, 3 numeric failure.
JSON output is deterministic (sorted keys); file writes are atomic.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field

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
from .numerics import INPUT_ANGULAR_TOL
from .ray_geometry import RaySystem
from .regular_growth import angular_density, crg_on_rays, exgr2_functionals
from .stepfn import StepFunction
from .subharmonic import (CanonicalPotential, GenusSchedule, carleman_check,
                          class_A_functionals, is_bottom, potential_eval,
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
    if is_bottom(x):
        return "-inf"
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

def _csv_text(table):
    if table is None:
        raise BadInput("this command has no tabular output; use --json")
    header, rows = table
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
# Job configuration


@dataclass
class JobConfig:
    """One validated CLI job: command, input paths, numeric parameters,
    output destination, seed.  Parameters are checked against the invoked
    operation's preconditions before any file is read or work starts."""

    command: str
    inputs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    out: str | None = None
    seed: int | None = None
    tol: float | None = None
    fmt: str = "json"

    @classmethod
    def from_args(cls, args):
        cfg = cls(command=args.command,
                  out=getattr(args, "out", None),
                  seed=getattr(args, "seed", None),
                  tol=getattr(args, "tol", None),
                  fmt="csv" if getattr(args, "csv", False) else "json")
        if cfg.tol is not None and not cfg.tol > 0.0:
            raise BadInput(f"need --tol > 0, got {cfg.tol}")
        _COLLECT[args.command](cfg, args)
        return cfg


def _collect_hm(cfg, args):
    cfg.params["z"] = _complex(args.z)
    if (args.interval is None) == (args.system is None):
        raise BadInput("hm needs exactly one of --interval or --system")
    if args.interval is not None:
        if args.disk is not None or args.segment:
            raise BadInput("--disk/--segment apply only with --system")
        t1, t2 = _floats(args.interval, 2, "--interval")
        cfg.params["interval"] = Interval(t1, t2)
        if not 0.0 < args.a < 1.0:
            raise BadInput(f"need 0 < a < 1, got {args.a}")
        if not args.b > 1.0:
            raise BadInput(f"need b > 1, got {args.b}")
        cfg.params["a"], cfg.params["b"] = args.a, args.b
    else:
        cfg.inputs["system"] = args.system
        if args.disk is None and not args.segment:
            raise BadInput("--system mode needs --disk and/or --segment")
        if args.disk is not None and not args.disk > 0.0:
            raise BadInput(f"need --disk > 0, got {args.disk}")
        cfg.params["disk"] = args.disk
        segs = []
        for spec in args.segment or []:
            j, a, b = _floats(spec, 3, "--segment")
            if j != int(j) or int(j) < 0:
                raise BadInput(f"segment ray index must be a whole number, got {j}")
            if not 0.0 <= a < b:
                raise BadInput(f"segment needs 0 <= a < b, got [{a}, {b}]")
            segs.append((int(j), a, b))
        cfg.params["segments"] = segs

def _collect_balayage(cfg, args):
    cfg.inputs["charge"] = args.charge
    if args.system is not None:
        cfg.inputs["system"] = args.system
    if args.samples < 2:
        raise BadInput(f"need --samples >= 2, got {args.samples}")
    if args.xmax is not None and not args.xmax > 0.0:
        raise BadInput(f"need --xmax > 0, got {args.xmax}")
    cfg.params.update(samples=args.samples, xmax=args.xmax,
                      variation=args.variation)

def _collect_check(cfg, args):
    cfg.params["name"] = args.name
    cfg.inputs["charge"] = args.charge
    if getattr(args, "system", None):
        cfg.inputs["system"] = args.system
    p = cfg.params
    if args.name == "blaschke":
        if not args.r0 > 0.0:
            raise BadInput(f"need --r0 > 0, got {args.r0}")
        p["r0"] = args.r0
    elif args.name == "carleman":
        if not 0.0 < args.r0 < args.r:
            raise BadInput(f"need 0 < r0 < r, got r0={args.r0}, r={args.r}")
        p.update(r0=args.r0, r=args.r)
    elif args.name == "thcup":
        if not args.t1 < args.t2:
            raise BadInput(f"need t1 < t2, got [{args.t1}, {args.t2}]")
        if not 0.0 < args.a < 1.0:
            raise BadInput(f"need 0 < a < 1, got {args.a}")
        p.update(t1=args.t1, t2=args.t2, a=args.a)
    elif args.name == "ges":
        if not args.r > 0.0:
            raise BadInput(f"need --r > 0, got {args.r}")
        if not args.gauge_scale > 1.0:
            raise BadInput(f"need --gauge-scale > 1, got {args.gauge_scale}")
        p.update(r=args.r, gauge_scale=args.gauge_scale, p_order=args.p)
    elif args.name == "lipschitz":
        if not args.x1 < args.x2:
            raise BadInput(f"need x1 < x2, got [{args.x1}, {args.x2}]")
        if args.n_grid < 1:
            raise BadInput(f"need --n-grid >= 1, got {args.n_grid}")
        p.update(x1=args.x1, x2=args.x2, n_grid=args.n_grid, p_order=args.p)
    elif args.name == "fubini":
        if "system" not in cfg.inputs:
            raise BadInput("check fubini needs --system")
        tents = []
        for spec in args.tent or []:
            j, t0, t1, t2 = _floats(spec, 4, "--tent")
            if j != int(j) or not 0.0 <= t0 < t1 < t2:
                raise BadInput(f"tent needs ray index and 0 <= t0 < t1 < t2, got {spec!r}")
            tents.append((int(j), t0, t1, t2))
        p["tents"] = tents
    elif args.name == "lindelof":
        if "system" not in cfg.inputs:
            raise BadInput("check lindelof needs --system")
        if args.q < 0 or args.q != int(args.q):
            raise BadInput(f"need whole --q >= 0, got {args.q}")
        if not args.r0 > 0.0:
            raise BadInput(f"need --r0 > 0, got {args.r0}")
        radii = _floats(args.radii, what="--radii") if args.radii else None
        if radii is not None and (len(radii) < 2 or any(
                not args.r0 < a < b for a, b in zip(radii, radii[1:]))):
            raise BadInput("--radii must increase and exceed r0")
        p.update(q=int(args.q), r0=args.r0, radii=radii)
    elif args.name == "classa":
        if not args.alpha < args.beta <= args.alpha + 2.0 * math.pi:
            raise BadInput(f"need alpha < beta <= alpha + 2*pi, got "
                           f"({args.alpha}, {args.beta})")
        if not 0.0 < args.r0 < args.r:
            raise BadInput(f"need 0 < r0 < r, got r0={args.r0}, r={args.r}")
        p.update(alpha=args.alpha, beta=args.beta, r0=args.r0, r=args.r)

def _collect_growth(cfg, args):
    cfg.inputs["charge"] = args.charge
    if not args.p > 0.0:
        raise BadInput(f"need --p > 0, got {args.p}")
    if args.r_lo is not None and args.r_hi is not None \
            and not 0.0 < args.r_lo < args.r_hi:
        raise BadInput(f"need 0 < r-lo < r-hi, got [{args.r_lo}, {args.r_hi}]")
    if args.r0 is not None and not args.r0 > 0.0:
        raise BadInput(f"need --r0 > 0, got {args.r0}")
    cfg.params.update(p=args.p, r_lo=args.r_lo, r_hi=args.r_hi, r0=args.r0,
                      signed=args.signed, zero_side=args.zero_side)

def _collect_potential(cfg, args):
    cfg.inputs["charge"] = args.charge
    if not args.z:
        raise BadInput("potential needs at least one --z")
    cfg.params["zs"] = [_complex(t) for t in args.z]
    if args.schedule is not None and args.genus is not None:
        raise BadInput("give --genus or --schedule, not both")
    if args.genus is not None and (args.genus < -1 or args.genus != int(args.genus)):
        raise BadInput(f"need whole --genus >= -1, got {args.genus}")
    cfg.params["genus"] = -1 if args.genus is None and args.schedule is None \
        else (int(args.genus) if args.genus is not None else None)
    if args.schedule is not None:
        cfg.inputs["schedule"] = args.schedule
    cfg.params["harmonic"] = _floats(args.harmonic, what="--harmonic") \
        if args.harmonic else []
    if args.sweep:
        if args.system is None:
            raise BadInput("--sweep needs --system")
        if cfg.params["genus"] is None:
            raise BadInput("--sweep works with a single --genus, not a schedule")
        if not args.rmax > 1.0:
            raise BadInput(f"need --rmax > 1, got {args.rmax}")
        cfg.inputs["system"] = args.system
        cfg.params.update(sweep=True, rmax=args.rmax)
    else:
        cfg.params["sweep"] = False

def _collect_crg(cfg, args):
    cfg.inputs["charge"] = args.charge
    cfg.inputs["system"] = args.system
    if not args.p > 0.0:
        raise BadInput(f"need --p > 0, got {args.p}")
    radii = _floats(args.radii, what="--radii") if args.radii else None
    if radii is not None and any(not 0.0 < a < b for a, b in zip(radii, radii[1:])):
        raise BadInput("--radii must be positive and increasing")
    if args.truncation is not None and not args.truncation > 1.0:
        raise BadInput(f"need --truncation > 1, got {args.truncation}")
    if not 0.0 < args.stability_tol < 1.0:
        raise BadInput(f"need 0 < --stability-tol < 1, got {args.stability_tol}")
    if not 0.0 <= args.drop < 1.0:
        raise BadInput(f"need 0 <= --drop < 1, got {args.drop}")
    angular = None
    if args.angular is not None:
        alpha, beta = _floats(args.angular, 2, "--angular")
        if not alpha < beta <= alpha + 2.0 * math.pi:
            raise BadInput(f"need alpha < beta <= alpha + 2*pi, got {args.angular!r}")
        angular = (alpha, beta)
    cfg.params.update(p=args.p, radii=radii, truncation=args.truncation,
                      stability_tol=args.stability_tol, drop=args.drop,
                      angular=angular, exgr2=args.exgr2)


_COLLECT = {"hm": _collect_hm, "balayage": _collect_balayage,
            "check": _collect_check, "growth": _collect_growth,
            "potential": _collect_potential, "crg": _collect_crg}


# ---------------------------------------------------------------------------
# Command handlers: each returns (report, table, holds)


def cmd_hm(cfg):
    z = cfg.params["z"]
    quad_tol = cfg.tol if cfg.tol is not None else 1e-10
    report = {"command": "hm", "z": z}
    if "interval" in cfg.params:
        I = cfg.params["interval"]
        exact = hm_interval(z, I)
        oracle = hm_interval_quad(z, I, tol=quad_tol)
        bounds = hm_bounds(z, I, a=cfg.params["a"], b=cfg.params["b"])
        report.update(interval=[I.t1, I.t2], exact=exact, oracle=oracle,
                      difference=abs(exact - oracle),
                      bounds={"entries": [{"name": e.name, "side": e.side,
                                           "value": e.value,
                                           "hypothesis": e.hypothesis,
                                           "holds": e.holds}
                                          for e in bounds.entries],
                              "skipped": [list(s) for s in bounds.skipped],
                              "all_hold": bounds.all_hold})
        rows = [("exact", "", exact, "", True), ("oracle", "", oracle, "", True)]
        rows += [(e.name, e.side, e.value, e.hypothesis, e.holds)
                 for e in bounds.entries]
        return report, (("kind", "side", "value", "hypothesis", "holds"), rows), \
            bounds.all_hold
    S = _system(cfg.inputs["system"])
    disk = cfg.params["disk"]
    k = len(S.thetas)
    segs = []
    for j, a, b in cfg.params["segments"]:
        if j >= k:
            raise BadInput(f"no ray {j} in a {k}-ray system")
        segs.append(BoundarySegment(j, a, b))
    exact = hm_system(S, z, segments=segs, disk=disk)
    oracle = hm_system_quad(S, z, segs, disk, quad_tol)
    report.update(system=S.to_json(), disk=disk,
                  segments=[[s.ray_index, s.a, s.b] for s in segs],
                  exact=exact, oracle=oracle, difference=abs(exact - oracle))
    rows = [("exact", "", exact, "", True), ("oracle", "", oracle, "", True)]
    return report, (("kind", "side", "value", "hypothesis", "holds"), rows), None


def cmd_balayage(cfg):
    nu = _charge(cfg.inputs["charge"])
    if "system" in cfg.inputs:
        S = _system(cfg.inputs["system"])
        bal = balayage_system(nu, S)
    else:
        bal = balayage_halfplane(nu)
    xmax = cfg.params["xmax"]
    if xmax is None:
        rads = [abs(z) for z, _ in nu.atoms]
        xmax = 4.0 * max([1.0] + rads)
    n = cfg.params["samples"]
    variation = cfg.params["variation"]
    rows = []
    for j, theta in enumerate(bal.rays.thetas):
        for i in range(1, n + 1):
            x = xmax * i / n
            rows.append((j, theta, x, bal.ray_distribution(j, x, variation)))
    report = {"command": "balayage", "charge": nu.to_json(),
              "balayage": bal.to_json(), "total_mass": bal.total_mass,
              "variation": variation,
              "samples": [{"ray": r[0], "theta": r[1], "x": r[2], "mass": r[3]}
                          for r in rows]}
    return report, (("ray", "theta", "x", "mass"), rows), None


def _check_blaschke(cfg, nu):
    r0 = cfg.params["r0"]
    if "system" in cfg.inputs:
        S = _system(cfg.inputs["system"])
        sums = blaschke_outside_system(nu, S, r0)
        rows = [(sec.alpha, sec.beta, sec.exponent, sums[i])
                for i, sec in enumerate(S.sectors)]
        report = {"sectors": [{"alpha": r[0], "beta": r[1], "exponent": r[2],
                               "sum": r[3]} for r in rows],
                  "total": math.fsum(sums.values())}
        return report, (("alpha", "beta", "exponent", "sum"), rows), None
    val = blaschke_halfplane(nu, r0)
    return {"halfplane_sum": val}, (("alpha", "beta", "exponent", "sum"),
                                    [(0.0, math.pi, 1.0, val)]), None

def _check_carleman(cfg, nu):
    tol = cfg.tol if cfg.tol is not None else 1e-6
    P = CanonicalPotential(nu, genus=-1)
    res = carleman_check(nu, lambda z: potential_eval(P, z),
                         cfg.params["r0"], cfg.params["r"], tol=tol)
    report = {"lhs": res.lhs, "rhs": res.rhs, "residual": res.detail["residual"],
              "tol": tol, "holds": res.holds}
    rows = [(res.lhs, res.rhs, res.detail["residual"], res.holds)]
    return report, (("lhs", "rhs", "residual", "holds"), rows), res.holds

def _check_thcup(cfg, nu):
    res = check_thcup_bound(nu, cfg.params["t1"], cfg.params["t2"], cfg.params["a"])
    report = {"lhs": res.lhs, "rhs": res.rhs, "holds": res.holds,
              "terms": res.detail}
    rows = [(res.lhs, res.rhs, res.holds)]
    return report, (("lhs", "rhs", "holds"), rows), res.holds

def _check_ges(cfg, nu):
    scale = cfg.params["gauge_scale"]
    r = cfg.params["r"]
    gauge = lambda s: scale * s
    if "system" in cfg.inputs:
        res = check_ges_bound_system(nu, _system(cfg.inputs["system"]), gauge, r)
    else:
        res = check_ges_bound(nu, gauge, r, p=cfg.params["p_order"])
    report = {"lhs": res.lhs, "rhs": res.rhs, "holds": res.holds,
              "gauge_scale": scale, "detail": res.detail}
    rows = [(res.lhs, res.rhs, res.holds)]
    return report, (("lhs", "rhs", "holds"), rows), res.holds

def _check_lipschitz(cfg, nu):
    rep = check_lipschitz(nu, cfg.params["x1"], cfg.params["x2"],
                          n_grid=cfg.params["n_grid"], p=cfg.params["p_order"])
    report = {"modulus": rep.modulus, "grid_step": rep.grid_step,
              "fitted_b": rep.fitted_b, "finite": math.isfinite(rep.modulus)}
    rows = [(rep.modulus, rep.grid_step, rep.fitted_b)]
    return report, (("modulus", "grid_step", "fitted_b"), rows), \
        math.isfinite(rep.modulus)

def _check_fubini(cfg, nu):
    S = _system(cfg.inputs["system"])
    tents = cfg.params["tents"]
    if not tents:
        tents = [(j, 0.5, 1.0, 2.0) for j in range(len(S.thetas))]
    breakpoints = {}
    for j, t0, t1, t2 in tents:
        if j >= len(S.thetas):
            raise BadInput(f"no ray {j} in a {len(S.thetas)}-ray system")
        breakpoints.setdefault(j, []).extend([(t0, 0.0), (t1, 1.0), (t2, 0.0)])
    F = RayTestFunction(S, breakpoints)
    tol = cfg.tol if cfg.tol is not None else 1e-8
    res = check_fubini(nu, S, F, tol=tol)
    report = {"lhs": res.lhs, "rhs": res.rhs,
              "difference": res.detail["difference"], "tol": tol,
              "holds": res.holds}
    rows = [(res.lhs, res.rhs, res.detail["difference"], res.holds)]
    return report, (("lhs", "rhs", "difference", "holds"), rows), res.holds

def _check_lindelof(cfg, nu):
    S = _system(cfg.inputs["system"])
    kwargs = {"r0": cfg.params["r0"]}
    if cfg.params["radii"] is not None:
        kwargs["radii"] = tuple(cfg.params["radii"])
    rep = check_lindelof_preservation(nu, S, cfg.params["q"], **kwargs)
    report = {"radii": rep["radii"], "differences": rep["differences"],
              "slope": rep["slope"], "bounded": rep["bounded"]}
    rows = list(zip(rep["radii"], rep["differences"]))
    return report, (("radius", "difference"), rows), rep["bounded"]

def _check_classa(cfg, nu):
    tol = cfg.tol if cfg.tol is not None else 1e-6
    P = CanonicalPotential(nu, genus=-1)
    res = class_A_functionals(lambda z: potential_eval(P, z),
                              cfg.params["alpha"], cfg.params["beta"],
                              cfg.params["r0"], cfg.params["r"])
    holds = res.residual_J <= tol and res.residual_double <= tol
    report = {"A": res.A, "B": res.B, "J": res.J, "A_via_J": res.A_via_J,
              "A_via_double": res.A_via_double,
              "residual_J": res.residual_J,
              "residual_double": res.residual_double, "tol": tol,
              "holds": holds}
    rows = [(res.A, res.B, res.J, res.residual_J, res.residual_double, holds)]
    return report, (("A", "B", "J", "residual_J", "residual_double", "holds"),
                    rows), holds


_CHECKS = {"blaschke": _check_blaschke, "carleman": _check_carleman,
           "thcup": _check_thcup, "ges": _check_ges,
           "lipschitz": _check_lipschitz, "fubini": _check_fubini,
           "lindelof": _check_lindelof, "classa": _check_classa}

def cmd_check(cfg):
    nu = _charge(cfg.inputs["charge"])
    report, table, holds = _CHECKS[cfg.params["name"]](cfg, nu)
    report = {"command": "check", "check": cfg.params["name"], **report}
    return report, table, holds


def cmd_growth(cfg):
    nu = _charge(cfg.inputs["charge"])
    if not nu.atoms:
        raise BadInput("growth analysis needs a nonempty charge")
    f = radial_counting(nu, variation=not cfg.params["signed"])
    supports = f.points
    r_lo = cfg.params["r_lo"]
    r_hi = cfg.params["r_hi"]
    if r_lo is None:
        r_lo = 2.0 * supports[0] if supports[0] > 0.0 else 1.0
    if r_hi is None:
        r_hi = max(2.0 * supports[-1], 4.0 * r_lo)
    if not 0.0 < r_lo < r_hi:
        raise BadInput(f"bad analysis window [{r_lo}, {r_hi}]")
    p = cfg.params["p"]
    rep = growth_report(f, p, r_lo, r_hi)
    conv = rep.convergence
    report = {"command": "growth", "p": p, "window": [r_lo, r_hi],
              "order_estimate": rep.order_estimate,
              "type_estimate": rep.type_estimate,
              "type_is_finite": rep.type_is_finite,
              "convergence": {"value": conv.value, "trend": conv.trend,
                              "stieltjes_tail": conv.stieltjes_tail,
                              "parts_residual": conv.parts_residual,
                              "samples": [list(s) for s in conv.samples]}}
    if cfg.params["zero_side"]:
        r0 = cfg.params["r0"] if cfg.params["r0"] is not None else r_lo
        z = convergence_integral_zero(f, p, r0)
        report["zero_side"] = {"value": z.value, "f_log_limit": z.f_log_limit,
                               "log_stieltjes": z.log_stieltjes,
                               "poch_residual": z.poch_residual,
                               "log_residual": z.log_residual}
    rows = [(r, v) for r, v in conv.samples]
    return report, (("radius", "integral"), rows), None


def cmd_potential(cfg):
    nu = _charge(cfg.inputs["charge"])
    genus = cfg.params["genus"]
    if "schedule" in cfg.inputs:
        schedule = GenusSchedule.from_json(_load_json(cfg.inputs["schedule"]))
        P = CanonicalPotential(nu, schedule=schedule,
                               harmonic_coeffs=cfg.params["harmonic"])
    else:
        P = CanonicalPotential(nu, genus=genus,
                               harmonic_coeffs=cfg.params["harmonic"])
    sweep = cfg.params["sweep"]
    if sweep:
        S = _system(cfg.inputs["system"])
        bal = balayage_system(nu, S)
    sweep_tol = cfg.tol if cfg.tol is not None else 1e-4
    values = []
    rows = []
    for z in cfg.params["zs"]:
        val = potential_eval(P, z)
        entry = {"z": z, "value": val}
        row = [z, val if not is_bottom(val) else "-inf"]
        if sweep:
            swept = subharmonic_balayage_eval(
                lambda w: potential_eval(P, w), S, z,
                R_max=cfg.params["rmax"], tol=sweep_tol)
            route = sweep_potential_eval(bal, z, genus=genus)
            entry.update(swept=swept, swept_charge_route=route,
                         route_difference=abs(swept - route))
            row += [swept, route]
        values.append(entry)
        rows.append(tuple(row))
    report = {"command": "potential", "genus": genus,
              "harmonic_coeffs": cfg.params["harmonic"], "values": values}
    header = ("z", "value", "swept", "swept_charge_route") if sweep \
        else ("z", "value")
    return report, (header, rows), None


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

def cmd_crg(cfg):
    nu = _charge(cfg.inputs["charge"])
    S = _system(cfg.inputs["system"])
    counts = _counts_by_ray(nu, S)
    rep = crg_on_rays(counts, list(S.thetas), cfg.params["p"],
                      radii=cfg.params["radii"],
                      tol=cfg.params["stability_tol"],
                      drop_fraction=cfg.params["drop"],
                      truncation=cfg.params["truncation"])
    report = {"command": "crg", "p": cfg.params["p"], **rep.to_json()}
    if cfg.params["angular"] is not None:
        alpha, beta = cfg.params["angular"]
        report["angular"] = angular_density(nu, alpha, beta, cfg.params["p"])
    if cfg.params["exgr2"]:
        if len(S.thetas) != 4:
            raise BadInput("--exgr2 needs a four-ray system")
        report["exgr2"] = exgr2_functionals(counts)
    rows = []
    for rec in rep.per_ray:
        for r, v in zip(rec.radii, rec.values):
            rows.append((rec.theta, r, v, rec.stable))
    return report, (("theta", "radius", "value", "stable"), rows), None


_DISPATCH = {"hm": cmd_hm, "balayage": cmd_balayage, "check": cmd_check,
             "growth": cmd_growth, "potential": cmd_potential, "crg": cmd_crg}


# ---------------------------------------------------------------------------
# Parser


def _add_common(p):
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--seed", type=int, help="recorded in the report")
    p.add_argument("--tol", type=float, help="tolerance override")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--json", action="store_true", help="JSON report (default)")
    grp.add_argument("--csv", action="store_true", help="CSV table")

def build_parser():
    ap = argparse.ArgumentParser(
        prog="balayage",
        description="Sweeping of charges and potentials onto ray systems: "
                    "harmonic measure, bound checks, growth scales, and "
                    "radial-limit diagnostics.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hm", help="harmonic measure of an interval or a "
                                  "boundary set of a ray-system complement")
    p.add_argument("--z", required=True, help="evaluation point 're,im'")
    p.add_argument("--interval", help="real interval 't1,t2' (half-plane mode)")
    p.add_argument("--system", help="ray-system JSON path")
    p.add_argument("--disk", type=float, help="origin disk radius (system mode)")
    p.add_argument("--segment", action="append",
                   help="ray segment 'j,a,b' (repeatable, system mode)")
    p.add_argument("--a", type=float, default=0.5, help="bound parameter a")
    p.add_argument("--b", type=float, default=2.0, help="bound parameter b")
    _add_common(p)

    p = sub.add_parser("balayage", help="sweep a charge onto R or a ray "
                                        "system; emit swept charge and "
                                        "distribution samples")
    p.add_argument("--charge", required=True, help="charge JSON path")
    p.add_argument("--system", help="ray-system JSON path (default: "
                                    "upper half-plane onto R)")
    p.add_argument("--samples", type=int, default=80,
                   help="samples per ray (default 80)")
    p.add_argument("--xmax", type=float, help="sampling radius "
                                              "(default 4*max atom radius)")
    p.add_argument("--variation", action="store_true",
                   help="sample the variation distribution |nu|^bal")
    _add_common(p)

    p = sub.add_parser("check", help="run a named verification")
    p.add_argument("name", choices=sorted(_CHECKS),
                   help="which check to run")
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
    p.add_argument("--p", type=float, help="comparison order where used")
    p.add_argument("--n-grid", type=int, default=200)
    p.add_argument("--gauge-scale", type=float, default=2.0,
                   help="gauge g(r) = scale*r for the ges check")
    p.add_argument("--radii", help="comma-separated radius grid")
    p.add_argument("--tent", action="append",
                   help="test-function tent 'j,t0,t1,t2' for fubini")
    _add_common(p)

    p = sub.add_parser("growth", help="order/type/convergence diagnostics "
                                      "of a charge's counting function")
    p.add_argument("--charge", required=True, help="charge JSON path")
    p.add_argument("--p", type=float, required=True, help="comparison order")
    p.add_argument("--r-lo", type=float, help="window start")
    p.add_argument("--r-hi", type=float, help="window end")
    p.add_argument("--r0", type=float, help="zero-side radius")
    p.add_argument("--signed", action="store_true",
                   help="use the signed counting function")
    p.add_argument("--zero-side", action="store_true",
                   help="also report the zero-side integrals")
    _add_common(p)

    p = sub.add_parser("potential", help="evaluate a canonical potential "
                                         "(optionally its sweep) at points")
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
    _add_common(p)

    p = sub.add_parser("crg", help="radial-limit run over a ray system "
                                   "(regular-growth diagnostics)")
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
    _add_common(p)
    return ap


def _emit(cfg, report, table):
    if cfg.seed is not None:
        report = {**report, "seed": cfg.seed}
    if cfg.command == "balayage" and cfg.out:
        base = re.sub(r"\.(json|csv)$", "", cfg.out)
        _atomic_write(base + ".json", _json_text(report))
        _atomic_write(base + ".csv", _csv_text(table))
        return
    text = _csv_text(table) if cfg.fmt == "csv" else _json_text(report)
    if cfg.out:
        _atomic_write(cfg.out, text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = JobConfig.from_args(args)
        report, table, holds = _DISPATCH[cfg.command](cfg)
        _emit(cfg, report, table)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except BalayageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if holds in (None, True) else 1


if __name__ == "__main__":
    sys.exit(main())
