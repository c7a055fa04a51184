"""Every failure of the command line is an exit code: 0 ok, 1 a check ran and
failed, 2 bad input, 3 no representable value.  No exception escapes main,
whatever the magnitudes of the inputs, and only the commands that return a
verdict (hm and check) exit 1."""

import cmath
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from balayage import NumericFailure
from balayage.cli import Table, _csv_text, main
from conftest import write_json

PI = math.pi
VERDICT_COMMANDS = {"hm", "check"}
CHECKS = ("blaschke", "carleman", "thcup", "ges", "lipschitz", "fubini", "lindelof",
          "classa")

# magnitudes log-uniform over 1e-300 to 1e300
mags = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
angles = st.floats(0.0, 2.0 * PI, exclude_max=True)
# arbitrary points, and points on the negative axis as cmath.rect forms them
# (imaginary part 1.2e-16 |z|)
points = st.one_of(st.builds(cmath.rect, mags, angles),
                   st.builds(cmath.rect, mags, st.just(PI)))
signed = st.builds(lambda m, s: m * s, mags, st.sampled_from([1.0, -1.0]))
systems = st.lists(angles, min_size=1, max_size=4, unique=True).filter(
    lambda ts: all(abs(math.remainder(a - b, 2.0 * PI)) > 0.1
                   for i, a in enumerate(ts) for b in ts[:i]))


def _c(z):
    return f"{z.real!r},{z.imag!r}"


def _two(draw):
    a, b = sorted(draw(st.lists(mags, min_size=2, max_size=2, unique=True)))
    return repr(a), repr(b)


def _argv(kind, draw, files):
    """argv of one call of kind (a subcommand, or check <name>), its inputs
    drawn and its JSON files written by files(name, obj)."""
    atoms = draw(st.lists(st.tuples(points, signed), min_size=1, max_size=3))
    charge = files("charge", {"atoms": [{"re": z.real, "im": z.imag, "mass": m}
                                        for z, m in atoms]})
    thetas = draw(systems)
    system = files("system", {"rays": thetas})
    if kind == "hm":
        if draw(st.booleans()):
            t1, t2 = sorted(draw(st.lists(signed, min_size=2, max_size=2, unique=True)))
            return ["hm", f"--z={_c(draw(points))}", f"--interval={t1!r},{t2!r}"]
        a, b = _two(draw)
        return ["hm", f"--z={_c(draw(points))}", "--system", system, "--disk", a,
                "--segment", f"{draw(st.integers(0, len(thetas) - 1))},{a},{b}"]
    if kind == "balayage":
        return ["balayage", "--charge", charge, "--samples", "3", "--xmax",
                repr(draw(mags))] + (["--system", system] if draw(st.booleans()) else [])
    if kind == "growth":
        return ["growth", "--charge", charge, "--p", repr(draw(st.floats(0.1, 4.0))),
                "--zero-side"]
    if kind == "potential":
        argv = ["potential", "--charge", charge, f"--z={_c(draw(points))}",
                "--genus", str(draw(st.integers(-1, 2)))]
        return argv + (["--sweep", "--system", system, "--rmax", repr(draw(mags))]
                       if draw(st.booleans()) else [])
    if kind == "crg":
        on_rays = [{"re": z.real, "im": z.imag, "mass": 1.0} for z in
                   (cmath.rect(draw(mags), draw(st.sampled_from(thetas))) for _ in range(3))]
        return ["crg", "--charge", files("charge", {"atoms": on_rays}), "--system", system,
                "--p", repr(draw(st.floats(0.5, 3.0)))]
    name = kind.split()[1]
    r0, r = _two(draw)
    argv = ["check", name, "--charge", charge, "--r0", r0, "--r", r]
    if name in ("blaschke", "ges", "fubini", "lindelof") and draw(st.booleans()):
        argv += ["--system", system]
    if name == "thcup":
        t1, t2 = _two(draw)
        argv += ["--t1", t1, "--t2", t2]
    if name == "lipschitz":
        x1, x2 = _two(draw)
        argv += ["--x1", x1, "--x2", x2, "--n-grid", "4"]
    if name == "fubini":
        t = sorted(draw(st.lists(mags, min_size=3, max_size=3, unique=True)))
        argv += ["--system", system, "--tent",
                 f"{draw(st.integers(0, len(thetas) - 1))},{t[0]!r},{t[1]!r},{t[2]!r}"]
    if name == "lindelof":
        argv += ["--system", system]
    if name == "ges":
        argv += ["--gauge-scale", repr(1.0 + draw(mags))]
    return argv


@pytest.mark.parametrize("kind", ["hm", "balayage", "growth", "potential", "crg",
                                  *(f"check {name}" for name in CHECKS)])
@settings(max_examples=6, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_failure_is_an_exit_code(kind, data, tmp_path):
    files = lambda name, obj: write_json(tmp_path / f"{name}.json", obj)
    argv = _argv(kind, data.draw, files) + ["--out", str(tmp_path / "out.json")]
    rc = main(argv)
    assert rc in (0, 1, 2, 3), argv
    assert rc != 1 or argv[0] in VERDICT_COMMANDS, argv


# ---------------------------------------------------------------------------
# Families that escaped main as exceptions, each with one unit atom at 2 + i


@pytest.mark.parametrize("r, rays", [
    ("1e200", None),               # (g - r)^2 overflowed
    ("1e-200", None),              # (g - r)^2 underflowed to 0
    ("1e-200", [0.0, 2.0, 4.0]),   # the same in the system bound
    ("1e156", [0.0, 2.0, 4.0]),    # g^2 overflowed
])
def test_ges_gauge_factor_is_formed_as_a_ratio(r, rays, charge_file, system_file, tmp_path):
    out = tmp_path / "ges.json"
    system = [] if rays is None else ["--system", system_file(rays)]
    rc = main(["check", "ges", "--charge", charge_file([(2 + 1j, 1.0)]), "--r", r,
               *system, "--out", str(out)])
    report = json.loads(out.read_text())
    assert rc == 0 and report["holds"] and math.isfinite(report["rhs"])
    if float(r) > 1.0:  # the whole atom inside the gauge disk
        assert report["lhs"] == pytest.approx(1.0, rel=1e-12) and report["rhs"] == 1.0


def test_ges_bound_past_the_float_range_is_a_numeric_failure(charge_file, capsys):
    # g(r) one ulp above r = 1: (g / (g - r))^2 = 2e31 times a scaled tail of
    # 1.3e299 has no float; it used to read inf, and the bound held
    rc = main(["check", "ges", "--charge", charge_file([(2 + 1j, 1e300)]), "--r", "1",
               "--gauge-scale", "1.0000000000000002"])
    err = capsys.readouterr().err
    assert rc == 3 and "gauge bound" in err


@pytest.mark.parametrize("radii", ["1e100,1e200", "1e-200,1e-100"])
def test_crg_radii_past_the_float_range_are_a_numeric_failure(radii, charge_file,
                                                              system_file, capsys):
    # the values are scaled by r^2, which overflows at 1e200 and underflows at 1e-200
    rc = main(["crg", "--charge", charge_file([(2.0, 1.0), (3.0, 1.0)]), "--system",
               system_file([0.0]), "--p", "2", "--radii", radii])
    assert rc == 3 and capsys.readouterr().err.startswith("numeric failure:")


def test_hm_oracle_disagreement_exits_1(tmp_path, monkeypatch):
    # the closed form reads 1 (z inside the semidisk on a huge interval); a
    # stub oracle reads 0
    out, ok = tmp_path / "hm.json", tmp_path / "ok.json"
    monkeypatch.setattr("balayage.cli.hm_interval_quad", lambda z, I: 0.0)
    rc = main(["hm", "--z=0,1e-10", "--interval=-1e300,1e300", "--out", str(out)])
    monkeypatch.undo()
    report = json.loads(out.read_text())
    assert rc == 1 and report["exact"] == 1.0 and report["difference"] == 1.0
    assert report["bounds"]["all_hold"]
    # the report keeps its keys
    assert main(["hm", "--z=0,1", "--interval=-1,1", "--out", str(ok)]) == 0
    assert set(report) == set(json.loads(ok.read_text()))


@pytest.mark.parametrize("z", ["0.36647954883194506,0.03206280593689035",
                               "0.010263374528420813,0.004251228925386452"])
def test_the_hm_oracle_sees_a_narrow_poisson_peak(z, system_file, capsys):
    # z's image has Im w ~ 0.004 on the disk's image [-512.6, 512.6]: split at
    # Re w alone, quad missed the peak (error 1.1e-3, exit 3, or a reading of
    # -1.9e-12 against the exact 0.99999999999805, exit 1)
    rc = main(["hm", f"--z={z}", "--system", system_file([0.0, 0.698, 2.094, 4.189]),
               "--disk", "4"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and report["difference"] <= 1e-12


def test_a_mass_that_is_no_number_is_bad_input(tmp_path, capsys):
    # float("two") raised a ValueError that escaped main
    charge = write_json(tmp_path / "charge.json",
                        {"atoms": [{"re": 2.0, "im": 1.0, "mass": "two"}]})
    assert main(["growth", "--charge", charge, "--p", "1"]) == 2
    assert "bad atom entry" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Sums past the float range: exit 3 at their source, in the JSON and the CSV report


@pytest.mark.parametrize("fmt", [[], ["--csv"]], ids=["json", "csv"])
@pytest.mark.parametrize("atoms, rays, argv", [
    # m / z: 1e250 / 1e-100 has no float; the differences read "inf", the
    # slope "nan", and the verdict bounded
    ([(-1e-100, 1e250)], [0.0], ["check", "lindelof", "--r0", "1e-200"]),
    # |m| Im(1 / conj z) = 5e309 read "halfplane_sum": "inf"
    ([(1e-10 + 1e-10j, 1e300)], None, ["check", "blaschke", "--r0", "1e-290"]),
    # the kernel of the atom at 1e-200 read "limit": "inf" and "spread": "nan"
    ([(1e-200, 1.0), (2.0, 1.0), (3.0, 1.0)], [0.0], ["crg", "--p", "2.14"]),
    # w^2 overflows at both atoms, so the genus-2 potential is inf - inf
    ([(81.62257703906704 + 1.1884740215660785e-07j, 1.0),
      (-0.8726486224011847 + 0.5116084083144479j, -1.0)], None,
     ["potential", "--genus", "2", "--z=8.672957794169844e+254,-7.652948606001044e+289"]),
    # r^1.9 underflows to 0 on the angular grid [1.5e-200, 3e-200] under the
    # atom at 1e-200: the sector's mass over it raised ZeroDivisionError out of main
    ([(1e-200, 1.0), (3e-200, 1.0)], [0.0, PI],
     ["crg", "--p", "1.9", "--radii", "1e-100,2e-100", "--angular=-0.1,0.1"]),
], ids=["lindelof", "blaschke", "crg", "potential", "crg-angular"])
def test_an_overflowing_sum_is_a_numeric_failure(atoms, rays, argv, fmt, charge_file,
                                                 system_file, capsys):
    system = [] if rays is None else ["--system", system_file(rays)]
    rc = main([*argv, "--charge", charge_file(atoms), *system, *fmt])
    out = capsys.readouterr()
    assert rc == 3 and not out.out and out.err.startswith("numeric failure:")


BIG = [(2 + 1j, 1e308), (3 + 1j, 1e308)]


@pytest.mark.parametrize("atoms, argv", [
    # OverflowError: intermediate overflow in fsum
    (BIG, ["balayage"]),
    (BIG, ["check", "ges"]),
    (BIG, ["check", "ges", "--system", [0.0, 2.0, 4.0]]),
    (BIG, ["check", "thcup"]),
    # R_max ** p overflowed in the sweep of the potential
    ([(cmath.rect(1.0, PI), 1.0)],
     ["potential", "--genus", "0", "--z=1,0", "--sweep", "--system", [1.0, 6.0],
      "--rmax", "1e126"]),
    # the default window end 2 max|z| overflowed, and the window read as bad input
    ([(1.5e308, 1.0), (2 + 1j, 1.0)], ["growth", "--p", "1"]),
], ids=["balayage", "ges", "ges-system", "thcup", "potential-sweep", "growth-window"])
def test_an_overflow_error_is_a_numeric_failure(atoms, argv, charge_file, system_file,
                                                capsys):
    argv = [system_file(a) if isinstance(a, list) else a for a in argv]
    rc = main([*argv, "--charge", charge_file(atoms)])
    assert rc == 3 and capsys.readouterr().err.startswith("numeric failure:")


@pytest.mark.parametrize("sign", [[], ["--signed"]], ids=["variation", "signed"])
def test_a_window_from_below_the_float_range_of_t_to_the_minus_p(sign, charge_file,
                                                               tmp_path):
    # f = 0 on [1e-160, 2.23], where t^-2 overflows: the zero piece adds
    # nothing to the parts identity's integral, which read 0 * inf = nan
    rc = main(["growth", "--charge", charge_file([(2 + 1j, 1.0), (-3 + 0.5j, -1.0)]),
               "--p", "2", "--r-lo", "1e-160", "--r-hi", "100", *sign,
               "--out", str(tmp_path / "growth.json")])
    assert rc == 0


@pytest.mark.parametrize("argv", [[], ["--signed"], ["--zero-side", "--r0", "1e-200"]],
                         ids=["variation", "signed", "zero-side"])
def test_a_zero_count_over_an_underflowing_power_is_zero(argv, charge_file, tmp_path):
    # f = 0 at 1e-200, where r^2 underflows to 0: f(r)/r^2 and the parts
    # identities' f(r0)/r0^2 read 0/0 and exited 3
    rc = main(["growth", "--charge", charge_file([(2 + 1j, 1.0), (-3 + 0.5j, -1.0)]),
               "--p", "2", "--r-lo", "1e-200", "--r-hi", "100", *argv,
               "--out", str(tmp_path / "growth.json")])
    assert rc == 0


# ---------------------------------------------------------------------------
# The report encoder: strict JSON, with the documented infinities as strings


def _strict(text):
    def no_constant(name):
        raise AssertionError(f"{name} is no JSON value")
    return json.loads(text, parse_constant=no_constant)


def test_documented_infinities_are_strings_of_strict_json(charge_file, capsys):
    def report(argv):
        assert main(argv) == 0
        return _strict(capsys.readouterr().out)

    zero = report(["growth", "--charge", charge_file([(0j, 1.0), (2 + 0j, 1.0)]),
                   "--p", "1", "--zero-side"])["zero_side"]
    assert (zero["value"], zero["f_log_limit"], zero["log_stieltjes"]) == (
        "inf", "-inf", "-inf")
    growth = report(["growth", "--charge", charge_file([(2 + 0j, 1.0), (4 + 0j, 1e300)]),
                     "--p", "1"])
    assert growth["order_estimate"] == "inf"
    hm = report(["hm", "--z=-1.261653806642407e-172,6.524387077007737e-173",
                 "--interval=1.0,5.085547939563322e+145"])
    upper = [e["value"] for e in hm["bounds"]["entries"] if e["side"] == "upper"]
    assert "inf" in upper and all(v == "inf" or math.isfinite(v) for v in upper)


def test_a_csv_cell_that_is_not_finite_is_a_numeric_failure():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NumericFailure):
            _csv_text(Table(("z", "value")), {"z": 1.0, "value": bad})
    # a documented infinity is already the string "inf"
    assert _csv_text(Table(("z", "value")), {"z": 1.0, "value": "inf"}) == "z,value\n1.0,inf\n"


def test_a_nan_in_a_report_is_a_numeric_failure(charge_file, tmp_path, monkeypatch,
                                                capsys):
    # a NaN is never written, not even where an infinity would be; the stub
    # returns NaN at a point and at each point of an array
    monkeypatch.setattr("balayage.cli.potential_eval", lambda P, z: z.real * math.nan)
    out = tmp_path / "pot.json"
    rc = main(["potential", "--charge", charge_file([(2j, 1.0)]), "--z=1,0",
               "--out", str(out)])
    assert rc == 3 and capsys.readouterr().err.startswith("numeric failure:")
    assert not out.exists() and not list(tmp_path.glob(".job_*.part"))
