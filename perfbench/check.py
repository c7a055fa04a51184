"""Output checks: reference values recorded at one commit, and the oracle
fields every report carries about itself.

A report is reduced to a dict of leaf values keyed by path ("a/0/b").  Numeric
vectors longer than DIGEST_AFTER (the same path with the list index replaced
by "*") are stored as a digest: length, sum, sum of magnitudes and eight
evenly spaced entries, which keeps the reference files small.
"""

import math
from collections import defaultdict

from catalogue import VERDICT_CHECKS

DIGEST_AFTER = 16
ECHOES = ("charge", "seed")  # copies of the job's own inputs, not results
HM_ORACLE_TOL = 1e-8   # hm: closed form against the 1e-10 quadrature oracle
SWEEP_ROUTE_TOL = 1e-4  # potential --sweep: the CLI's default sweep tolerance


def _leaves(obj, path, out):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _leaves(obj[k], f"{path}/{k}" if path else k, out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _leaves(v, f"{path}/{i}", out)
    else:
        out.append((path, obj))


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def reduce_report(report):
    """The comparable content of a report, JSON-serialisable."""
    leaves = []
    _leaves({k: v for k, v in report.items() if k not in ECHOES}, "", leaves)
    vectors = defaultdict(list)
    for path, v in leaves:
        parts = path.split("/")
        key = "/".join("*" if p.isdigit() else p for p in parts)
        vectors[key].append((path, v))
    out = {}
    for key, items in vectors.items():
        values = [v for _, v in items]
        if len(values) > DIGEST_AFTER and all(_is_num(v) for v in values):
            n = len(values)
            picks = [values[(i * (n - 1)) // 7] for i in range(8)]
            out[key] = {"n": n, "sum": math.fsum(values),
                        "abs": math.fsum(abs(v) for v in values), "picks": picks}
        else:
            out.update(items)
    return out


def _close(a, b, rtol, atol, scale=None):
    if _is_num(a) and _is_num(b):
        return abs(a - b) <= atol + rtol * (abs(b) if scale is None else scale)
    return a == b


def compare(reduced, ref, tol):
    """Paths whose value differs from the reference beyond (rtol, atol)."""
    rtol, atol = tol
    bad = list(set(reduced) ^ set(ref))
    for key in set(reduced) & set(ref):
        got, want = reduced[key], ref[key]
        if isinstance(want, dict) and isinstance(got, dict):
            n = want["n"]
            ok = (got["n"] == n
                  and _close(got["sum"], want["sum"], rtol, atol * n, want["abs"])
                  and _close(got["abs"], want["abs"], rtol, atol * n)
                  and all(_close(g, w, rtol, atol)
                          for g, w in zip(got["picks"], want["picks"])))
        else:
            ok = _close(got, want, rtol, atol)
        if not ok:
            bad.append(key)
    return sorted(bad)


def oracle_failures(job, report):
    """Oracle fields of the report that miss the tolerance it states."""
    bad = []
    tol = report.get("tol")
    if "difference" in report:
        limit = tol if tol is not None else HM_ORACLE_TOL
        if not report["difference"] <= limit:
            bad.append(f"difference {report['difference']!r} > {limit}")
    for key in ("residual", "residual_J", "residual_double"):
        if key in report and not report[key] <= tol:
            bad.append(f"{key} {report[key]!r} > {tol}")
    for entry in report.get("values", []):
        if "route_difference" in entry and not entry["route_difference"] <= SWEEP_ROUTE_TOL:
            bad.append(f"route_difference {entry['route_difference']!r} > {SWEEP_ROUTE_TOL}")
    if job.argv[0] == "check" and job.argv[1] not in VERDICT_CHECKS \
            and report.get("holds") is False:
        bad.append("identity check does not hold")
    return bad
