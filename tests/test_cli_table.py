"""The CLI in-process, through main(argv): the exit code of every input it
rejects, and its CSV tables read against its JSON reports."""

import csv
import json
import math

import pytest

from balayage.cli import build_parser, main
from balayage.numerics import ORACLE_BUDGET, PAIRING_TOL
from conftest import write_json

PI = math.pi
# one ulp above 2*pi, and an alpha for which beta - alpha rounds back to 2*pi
# although beta lies one ulp above alpha + 2*pi
ABOVE_TWO_PI = repr(math.nextafter(2.0 * PI, math.inf))
ALPHA = -7.724017544268742
BETA = repr(math.nextafter(ALPHA + 2.0 * PI, math.inf))


@pytest.fixture
def files(tmp_path):
    def charge(name, atoms):
        return write_json(tmp_path / f"{name}.json", {"atoms": [
            {"re": z.real, "im": z.imag, "mass": m} for z, m in atoms]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    return {
        "@charge": charge("charge", [(2j, 1.0), (-1 + 0.5j, 0.5)]),
        "@axis": charge("axis", [(s * k, 1.0) for k in range(1, 41) for s in (1, -1)]),
        "@pos": charge("pos", [(float(k), 1.0) for k in range(1, 41)]),
        "@empty": charge("empty", []),
        "@sys2": write_json(tmp_path / "sys2.json", {"rays": [0.0, PI]}),
        "@sys3": write_json(tmp_path / "sys3.json", {"rays": [0.0, 2.0, 4.0]}),
        "@narrow": write_json(tmp_path / "narrow.json", {"rays": [0.0, 0.3]}),
        "@far": charge("far", [(-2.6079314322833947e53 + 3.1937948809416318e37j, 1.0)] * 2),
        "@wide": write_json(tmp_path / "wide.json",
                            {"rays": [1.3974338672691609, 3.900647423753303]}),
        "@schedule": write_json(tmp_path / "schedule.json",
                                {"radii": [0.0, 1.0], "genera": [-1, 0]}),
        "@bad": str(bad),
        "@out": str(tmp_path / "out"),
    }


def run(argv, files):
    """main's exit code; argparse's own rejections raise SystemExit(2)."""
    try:
        return main([files.get(a, a) for a in argv.split()])
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# Every rejection exits 2


REJECTED = [
    # hm: parsing and flag combinations
    "hm --z xx --interval=-1,1",
    "hm --z 0,1",
    "hm --z 0,1 --interval=-1,1 --system @sys2",
    "hm --z 0,1 --interval=-1,1 --disk 1",
    "hm --z 0,1 --interval=-1,1 --segment 0,0,1",
    "hm --z 0,1 --interval 1",
    "hm --z 0,1 --system @sys2",
    "hm --z 0,1 --system @bad --segment 0,0,1",
    # hm: values
    "hm --z 0,1 --interval=1,-1",
    "hm --z 0,0 --interval=-1,1",
    "hm --z 0,1 --interval=-1,1 --a 0",
    "hm --z 0,1 --interval=-1,1 --a 1",
    "hm --z 0,1 --interval=-1,1 --a nan",
    "hm --z 0,1 --interval=-1,1 --b 1",
    "hm --z 0,1 --interval=-1,1 --b nan",
    "hm --z 0,1 --interval=-1,1 --tol 0",
    "hm --z 0,1 --interval=-1,1 --tol -1",
    "hm --z 0,1 --interval=-1,1 --tol nan",
    "hm --z 0,1 --interval=-1,1 --tol inf",
    "hm --z 0,1 --system @sys2 --disk 0",
    "hm --z 1,0 --system @sys2 --disk 0",
    "hm --z 0,1 --system @sys2 --disk -1",
    "hm --z 1,0 --system @sys2 --disk nan",
    "hm --z 0,1 --system @sys2 --segment 0,1",
    "hm --z 0,1 --system @sys2 --segment 0.5,0,1",
    "hm --z 0,1 --system @sys2 --segment=-1,0,1",
    "hm --z 0,1 --system @sys2 --segment 0,2,1",
    "hm --z 0,1 --system @sys2 --segment 0,-1,1",
    "hm --z 0,1 --system @sys2 --segment 0,nan,1",
    "hm --z 0,1 --system @sys2 --segment 5,0,1",
    "hm --z 1,0 --system @sys2 --segment 5,0,1",
    "hm --z 0,1 --system @sys2 --segment 0,0,1 --tol 0",
    # a non-finite part of a comma list
    "hm --z=inf,1 --interval=0,1",
    # balayage
    "balayage --charge @charge --samples 1",
    "balayage --charge @charge --xmax 0",
    "balayage --charge @charge --xmax nan",
    "balayage --charge @charge --xmax inf",
    "balayage --charge @bad",
    "balayage --charge @charge --system @bad",
    "balayage --charge @charge --tol 0",
    # check
    "check blaschke --charge @charge --r0 0",
    "check blaschke --charge @charge --r0 nan",
    "check blaschke --charge @charge --r0 inf",
    "check blaschke --charge @charge --system @sys3 --r0 0",
    "check blaschke --charge @charge --system @sys3 --r0 nan",
    "check blaschke --charge @bad",
    "check carleman --charge @charge --r0 0",
    "check carleman --charge @charge --r0 nan",
    "check carleman --charge @charge --r0 10 --r 10",
    "check carleman --charge @charge --r nan",
    "check carleman --charge @charge --tol inf",
    "check carleman --charge @charge --tol 0",
    "check thcup --charge @charge --t1 2 --t2 1",
    "check thcup --charge @charge --t1 nan",
    "check thcup --charge @charge --t1=-inf --t2=-1",
    "check thcup --charge @charge --t1=-1 --t2 1",
    "check thcup --charge @charge --a 0",
    "check thcup --charge @charge --a 1",
    "check thcup --charge @charge --a nan",
    "check thcup --charge @charge --tol 0",
    "check thcup --charge @charge --tol nan",
    "check ges --charge @charge --r 0",
    "check ges --charge @charge --r nan",
    "check ges --charge @charge --gauge-scale 1",
    "check ges --charge @charge --gauge-scale nan",
    "check ges --charge @charge --gauge-scale inf",
    "check ges --charge @charge --system @sys3 --r nan",
    "check ges --charge @charge --system @sys3 --gauge-scale 0.5",
    "check lipschitz --charge @charge --x1 2 --x2 1",
    "check lipschitz --charge @charge --x1 nan",
    "check lipschitz --charge @charge --x2 inf",
    "check lipschitz --charge @charge --n-grid 0",
    "check lipschitz --charge @charge --n-grid -1",
    "check fubini --charge @charge",
    "check fubini --charge @charge --system @sys3 --tent 0,1,2",
    "check fubini --charge @charge --system @sys3 --tent 0.5,0.5,1,2",
    "check fubini --charge @charge --system @sys3 --tent 0,1,1,2",
    "check fubini --charge @charge --system @sys3 --tent 0,0.5,nan,2",
    "check fubini --charge @charge --system @sys3 --tent 5,0.5,1,2",
    "check fubini --charge @charge --system @sys3 --tent=-1,0.5,1,2",
    "check fubini --charge @charge --system @sys3 --tol 0",
    "check lindelof --charge @charge",
    "check lindelof --charge @charge --system @sys3 --q -1",
    "check lindelof --charge @charge --system @sys3 --q 0",
    "check lindelof --charge @charge --system @sys3 --r0 0",
    "check lindelof --charge @charge --system @sys3 --r0 nan",
    "check lindelof --charge @charge --system @sys3 --r0 5",
    "check lindelof --charge @charge --system @sys3 --radii 8,4",
    "check lindelof --charge @charge --system @sys3 --radii 8",
    "check lindelof --charge @charge --system @sys3 --radii 0.5,8",
    f"check classa --charge @charge --beta {ABOVE_TWO_PI}",
    f"check classa --charge @charge --alpha={ALPHA} --beta={BETA}",
    "check classa --charge @charge --alpha 1 --beta 1",
    "check classa --charge @charge --beta nan",
    "check classa --charge @charge --r0 0",
    "check classa --charge @charge --r0 10 --r 10",
    "check classa --charge @charge --r0 nan",
    "check classa --charge @charge --r inf",
    "check classa --charge @charge --tol 0",
    # growth
    "growth --charge @charge --p 0",
    "growth --charge @charge --p nan",
    "growth --charge @charge --p -1",
    "growth --charge @charge --p 1 --r-lo 2 --r-hi 1",
    "growth --charge @charge --p 1 --r-lo 0 --r-hi 1",
    "growth --charge @charge --p 1 --r-lo=-1 --r-hi 8",
    "growth --charge @charge --p 1 --r-lo=-1",
    "growth --charge @charge --p 1 --r-lo nan --r-hi 8",
    "growth --charge @charge --p 1 --r-lo nan",
    "growth --charge @charge --p 1 --r-hi nan",
    "growth --charge @charge --p 1 --r-hi inf",
    "growth --charge @charge --p 1 --r0 0",
    "growth --charge @charge --p 1 --r0 nan --zero-side",
    "growth --charge @empty --p 1",
    "growth --charge @charge --p 1 --tol 0",
    # potential
    "potential --charge @charge",
    "potential --charge @charge --z xx",
    "potential --charge @charge --z 1,1 --genus 0 --schedule @schedule",
    "potential --charge @charge --z 1,1 --genus -2",
    "potential --charge @charge --z 1,1 --harmonic 1,x",
    "potential --charge @charge --z 1,1 --sweep",
    "potential --charge @charge --z 1,1 --sweep --system @sys2 --schedule @schedule",
    "potential --charge @charge --z 1,1 --sweep --system @sys2 --rmax 1",
    "potential --charge @charge --z 1,1 --sweep --system @sys2 --rmax nan",
    "potential --charge @charge --z 1,1 --sweep --system @sys2 --rmax inf",
    "potential --charge @charge --z 1,1 --tol 0",
    "potential --charge @charge --z 1,1 --tol nan",
    "potential --charge @bad --z 1,1",
    "potential --charge @charge --z=inf,0",
    "potential --charge @charge --z=nan,0",
    # crg
    "crg --charge @axis --system @sys2 --p 0",
    "crg --charge @axis --system @sys2 --p nan",
    "crg --charge @axis --system @sys2 --p 1 --radii 8,4",
    "crg --charge @axis --system @sys2 --p 1 --radii 0,4",
    "crg --charge @axis --system @sys2 --p 1 --truncation 1",
    "crg --charge @axis --system @sys2 --p 1 --truncation nan",
    "crg --charge @axis --system @sys2 --p 1 --stability-tol 0",
    "crg --charge @axis --system @sys2 --p 1 --stability-tol 1",
    "crg --charge @axis --system @sys2 --p 1 --stability-tol nan",
    "crg --charge @axis --system @sys2 --p 1 --drop=-0.1",
    "crg --charge @axis --system @sys2 --p 1 --drop 1",
    "crg --charge @axis --system @sys2 --p 1 --drop nan",
    "crg --charge @axis --system @sys2 --p 1 --angular 1,0",
    f"crg --charge @axis --system @sys2 --p 1 --angular 0,{ABOVE_TWO_PI}",
    "crg --charge @axis --system @sys2 --p 1 --angular nan,1",
    "crg --charge @axis --system @sys2 --p 1 --angular 1",
    "crg --charge @pos --system @sys3 --p 1 --exgr2",
    "crg --charge @charge --system @sys2 --p 1",
    "crg --charge @axis --system @sys2 --p 1 --tol 0",
    # potential --sweep: the charge route has no harmonic part
    "potential --charge @charge --z 1,1 --sweep --system @sys2 --harmonic 3",
    # the charge route's kernel integral diverges: the sector (0, 2) has p < 2
    "potential --charge @charge --z 5,2 --sweep --system @sys3 --genus 2",
    # check: --tol only where the check has a tolerance, --p only for lipschitz
    "check blaschke --charge @charge --tol 1e-3",
    "check thcup --charge @charge --t1=-3 --t2=-1 --tol 1e-30",
    "check ges --charge @charge --r 3 --tol 1e-3",
    "check lipschitz --charge @charge --n-grid 20 --tol 1e-3",
    "check lindelof --charge @charge --system @sys2 --tol 1e-3",
    "check blaschke --charge @charge --p 2",
    "check carleman --charge @charge --p 2",
    "check thcup --charge @charge --t1=-3 --t2=-1 --p 2",
    "check ges --charge @charge --r 3 --p 2",
    "check fubini --charge @charge --system @sys3 --p 2",
    "check lindelof --charge @charge --system @sys2 --p 2",
    "check classa --charge @charge --r 4 --p 2",
]


@pytest.mark.parametrize("argv", REJECTED)
def test_rejected_input_exits_2(argv, files):
    assert run(argv, files) == 2


# |z|**p passes the float range in the sector (0, 0.3), where p = 10.47
FAR = "--z=9.887710779360423e+39,1.4943813247359922e+39"


@pytest.mark.parametrize("argv", [
    f"hm {FAR} --system @narrow --disk 1",
    f"hm {FAR} --system @narrow --segment 0,1,2",
    f"potential --charge @charge {FAR} --sweep --system @narrow",
    # so does r**p for a disk radius or a segment end of 1e40
    "hm --z=1,0.1 --system @narrow --disk 1e40",
    "hm --z=1,0.1 --system @narrow --segment 0,1,1e40",
    # and |z|**p underflows to 0 at |z| = 1e-40, which exited 2 from the oracle
    "hm --z=1e-40,1e-41 --system @narrow --disk 1",
])
def test_power_map_overflow_exits_3(argv, files):
    # these ended in an OverflowError traceback
    assert run(argv, files) == 3


@pytest.mark.parametrize("argv, codes", [
    # z an ulp above the axis, as cmath.rect(1, pi) forms it: the kernel's
    # width Im z is below the float spacing at Re z, and the oracle exited 3
    ("hm --z=-1.0,1.2246467991473532e-16 --interval=-1.0,5.629925112836641", {0}),
    # R_max^p = 4e218: the sweep's far piece divided by u*u = 0, and a
    # ZeroDivisionError escaped main
    ("potential --charge @far --system @wide --genus 0 --sweep --rmax 1.1395907588295753e+263"
     " --z=2.7676537777924775e+236,-1.6235814298926868e+236", {0, 3}),
])
def test_magnitudes_at_the_ends_of_the_float_range_exit_cleanly(argv, codes, files, capsys):
    rc = run(argv, files)
    out, err = capsys.readouterr()
    assert rc in codes and "Traceback" not in err
    if argv.startswith("hm"):
        assert abs(json.loads(out)["oracle"] - 0.5) <= ORACLE_BUDGET


@pytest.mark.parametrize("argv", [
    f"check classa --charge @charge --beta {2.0 * PI!r} --r 4",
    f"crg --charge @axis --system @sys2 --p 1 --angular 0,{2.0 * PI!r}",
])
def test_full_circle_apertures_are_accepted(argv, files):
    assert run(argv, files) == 0


# ---------------------------------------------------------------------------
# CSV tables: the header of each table, and every cell read from the report


def _single(*keys):
    return lambda rep: [[rep[k] for k in keys]]


def _hm_rows(rep):
    rows = [["exact", "", rep["exact"], "", True], ["oracle", "", rep["oracle"], "", True]]
    return rows + [[e["name"], e["side"], e["value"], e["hypothesis"], e["holds"]]
                   for e in rep.get("bounds", {}).get("entries", [])]


def _blaschke_rows(rep):
    if "sectors" in rep:
        return [[s["alpha"], s["beta"], s["exponent"], s["sum"]] for s in rep["sectors"]]
    return [[0.0, PI, 1.0, rep["halfplane_sum"]]]


def _potential_rows(rep):
    return [[v[k] for k in ("z", "value", "swept", "swept_charge_route") if k in v]
            for v in rep["values"]]


LIPSCHITZ = ("modulus", "grid_step", "fitted_b")
BALAYAGE = ("ray", "theta", "x", "mass")
SUMS = ("lhs", "rhs", "holds")
TABLES = {
    "hm --z 0.3,1 --interval=-1,2":
        (("kind", "side", "value", "hypothesis", "holds"), _hm_rows),
    "hm --z 0,1 --system @sys2 --segment 0,0,1 --disk 0.5":
        (("kind", "side", "value", "hypothesis", "holds"), _hm_rows),
    "balayage --charge @charge --system @sys3 --samples 4":
        (BALAYAGE, lambda rep: [[s[k] for k in BALAYAGE] for s in rep["samples"]]),
    "balayage --charge @charge --samples 3 --variation":
        (BALAYAGE, lambda rep: [[s[k] for k in BALAYAGE] for s in rep["samples"]]),
    "check blaschke --charge @charge --r0 0.5":
        (("alpha", "beta", "exponent", "sum"), _blaschke_rows),
    "check blaschke --charge @charge --system @sys3 --r0 0.5":
        (("alpha", "beta", "exponent", "sum"), _blaschke_rows),
    "check carleman --charge @charge --r0 1 --r 10":
        (("lhs", "rhs", "residual", "holds"), _single("lhs", "rhs", "residual", "holds")),
    "check thcup --charge @charge --t1=-3 --t2=-1": (SUMS, _single(*SUMS)),
    "check ges --charge @charge --r 3": (SUMS, _single(*SUMS)),
    "check ges --charge @charge --system @sys3 --r 3": (SUMS, _single(*SUMS)),
    "check lipschitz --charge @charge --n-grid 20": (LIPSCHITZ, _single(*LIPSCHITZ)),
    "check fubini --charge @charge --system @sys3":
        (("lhs", "rhs", "difference", "holds"), _single("lhs", "rhs", "difference", "holds")),
    "check lindelof --charge @charge --system @sys3 --radii 2,4,8":
        (("radius", "difference"),
         lambda rep: [list(row) for row in zip(rep["radii"], rep["differences"])]),
    "check classa --charge @charge --r0 1 --r 6":
        (("A", "B", "J", "residual_J", "residual_double", "holds"),
         _single("A", "B", "J", "residual_J", "residual_double", "holds")),
    "growth --charge @charge --p 1 --zero-side":
        (("radius", "integral"), lambda rep: rep["convergence"]["samples"]),
    "potential --charge @charge --z 1,1 --z 0,2 --genus 0":
        (("z", "value"), _potential_rows),
    "potential --charge @charge --z 5,2 --sweep --system @sys2":
        (("z", "value", "swept", "swept_charge_route"), _potential_rows),
    "crg --charge @axis --system @sys2 --p 1 --radii 4.5,9.5,17.5":
        (("theta", "radius", "value", "stable"),
         lambda rep: [[ray["theta"], r, v, ray["stable"]] for ray in rep["rays"]
                      for r, v in zip(ray["radii"], ray["values"])]),
}


def _cell(value):
    """A JSON report value written the way the CSV writes it."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return f"{value['re']!r}+{value['im']!r}j"
    return "" if value is None else str(value)


def _check_table(argv, header, rows, files, tmp_path):
    out = tmp_path / "out"
    if argv.startswith("balayage"):
        assert run(f"{argv} --out @out", files) == 0
        report, table = tmp_path / "out.json", tmp_path / "out.csv"
    else:
        assert run(f"{argv} --out @out", files) == 0
        report = tmp_path / "report.json"
        out.rename(report)
        assert run(f"{argv} --csv --out @out", files) == 0
        table = out
    lines = list(csv.reader(table.read_text().splitlines()))
    assert tuple(lines[0]) == header
    want = [[_cell(v) for v in row] for row in rows(json.loads(report.read_text()))]
    assert want and lines[1:] == want


@pytest.mark.parametrize("argv", list(TABLES))
def test_csv_cells_are_the_report_values(argv, files, tmp_path):
    _check_table(argv, *TABLES[argv], files, tmp_path)


def test_lipschitz_fitted_b_is_written_as_a_number(files, tmp_path):
    # fitted_b was a numpy scalar, whose repr is "np.float64(...)"
    _check_table("check lipschitz --charge @charge --n-grid 20 --p 1.5",
                 LIPSCHITZ, _single(*LIPSCHITZ), files, tmp_path)


@pytest.mark.parametrize("command", [
    "balayage --charge @charge",
    "growth --charge @charge --p 1",
    "crg --charge @axis --system @sys2 --p 1",
])
def test_tol_is_not_an_option_where_nothing_reads_it(command, files):
    assert run(f"{command} --tol 1e-3", files) == 2
    assert run(command, files) == 0


@pytest.mark.parametrize("argv", [
    "hm --z 0,1 --system @sys2 --segment nan,0,1",
    "check fubini --charge @charge --system @sys3 --tent inf,0.5,1,2",
])
def test_non_finite_ray_index_is_bad_input(argv, files):
    # int(nan) and int(inf) used to escape main as ValueError / OverflowError
    assert run(argv, files) == 2


# ---------------------------------------------------------------------------
# One parser serves every main() call of a process


def test_parser_reuse_carries_no_value_between_calls(files, tmp_path):
    two = "hm --z 0,1 --system @sys2 --segment 0,1,2 --segment 1,0.5,3"
    fubini = "check fubini --charge @charge --system @sys3"

    def report(argv):
        assert run(f"{argv} --out @out", files) == 0
        return (tmp_path / "out").read_bytes()

    first = report(two)
    assert json.loads(first)["segments"] == [[0, 1.0, 2.0], [1, 0.5, 3.0]]
    one = json.loads(report("hm --z 0,1 --system @sys2 --segment 0,1,2"))
    assert one["segments"] == [[0, 1.0, 2.0]]
    assert json.loads(report(f"{fubini} --tol 1e-7"))["tol"] == 1e-7
    assert json.loads(report(fubini))["tol"] == PAIRING_TOL
    assert run("hm --z 0,1 --no-such-option", files) == 2
    assert run(f"{fubini} --tol 0", files) == 2
    assert report(two) == first
    assert build_parser() is build_parser()
