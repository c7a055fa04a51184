import json
import math
import subprocess
import sys

import pytest

from balayage import StepFunction, exgr2_functionals
from conftest import write_json

PI = math.pi


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "balayage.cli", *args],
                          capture_output=True, text=True, timeout=120)
    return proc


def charge_json(atoms):
    return {"atoms": [{"re": z.real, "im": z.imag, "mass": m}
                      for z, m in atoms]}


def test_hm_interval_json(tmp_path):
    out = tmp_path / "hm.json"
    proc = run_cli("hm", "--z", "0,1", "--interval=-1,1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["exact"] == pytest.approx(0.5, abs=1e-15)
    assert data["difference"] <= 1e-8
    assert data["bounds"]["all_hold"]


def test_hm_malformed_inputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("hm", "--z", "0,1", "--system", str(bad))
    assert proc.returncode == 2
    proc = run_cli("hm", "--z", "0,1")  # neither interval nor system
    assert proc.returncode == 2
    proc = run_cli("hm", "--z", "xx", "--interval=-1,1")
    assert proc.returncode == 2


def test_hm_point_on_axis_rejected():
    proc = run_cli("hm", "--z", "0,0", "--interval=-1,1")
    assert proc.returncode == 2


def test_hm_system_mode(tmp_path):
    system = tmp_path / "system.json"
    write_json(system, {"rays": [0.0, PI]})
    out = tmp_path / "hm.json"
    proc = run_cli("hm", "--z", "0,1", "--system", str(system),
                   "--segment", "0,0,1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["exact"] == pytest.approx(0.25, abs=1e-13)
    assert data["difference"] <= 1e-8


def test_balayage_dual_output(tmp_path):
    charge = tmp_path / "charge.json"
    write_json(charge, charge_json([(2j, 1.0)]))
    system = tmp_path / "system.json"
    write_json(system, {"rays": [0.0, PI]})
    out = tmp_path / "swept.json"
    proc = run_cli("balayage", "--charge", str(charge), "--system", str(system),
                   "--samples", "8", "--xmax", "8", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    hit = [s for s in data["samples"] if s["ray"] == 0 and s["x"] == 2.0]
    assert hit and hit[0]["mass"] == 0.25
    csv_lines = (tmp_path / "swept.csv").read_text().splitlines()
    assert csv_lines[0] == "ray,theta,x,mass"
    row = [ln for ln in csv_lines if ln.startswith("0,0.0,2.0,")]
    assert row and float(row[0].split(",")[3]) == 0.25


def test_balayage_antisymmetric_zero(tmp_path):
    charge = tmp_path / "charge.json"
    write_json(charge, charge_json([(1j, 1.0), (-1j, -1.0)]))
    system = tmp_path / "system.json"
    write_json(system, {"rays": [0.0, PI]})
    out = tmp_path / "swept.json"
    proc = run_cli("balayage", "--charge", str(charge), "--system", str(system),
                   "--samples", "5", "--xmax", "4", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["samples"]
    for entry in data["samples"]:
        assert entry["mass"] == 0.0


def test_empty_charge_ok(tmp_path):
    charge = tmp_path / "charge.json"
    write_json(charge, {"atoms": []})
    system = tmp_path / "system.json"
    write_json(system, {"rays": [0.0]})
    out = tmp_path / "swept.json"
    proc = run_cli("balayage", "--charge", str(charge), "--system", str(system),
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["total_mass"] == 0.0
    assert all(s["mass"] == 0.0 for s in data["samples"])


def test_check_carleman_pass(tmp_path):
    charge = tmp_path / "charge.json"
    write_json(charge, charge_json([(2j, 1.0)]))
    out = tmp_path / "check.json"
    proc = run_cli("check", "carleman", "--charge", str(charge),
                   "--r0", "1", "--r", "10", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["holds"] is True
    assert data["lhs"] == pytest.approx(0.48, abs=1e-9)


def test_check_exit_codes(tmp_path):
    charge = tmp_path / "charge.json"
    write_json(charge, charge_json([(1j, 1.0)]))
    # clean run, inequality holds
    proc = run_cli("check", "thcup", "--charge", str(charge),
                   "--t1", "-3", "--t2", "-1", "--a", "0.5")
    assert proc.returncode == 0, proc.stderr
    # invalid interval order: input error
    proc = run_cli("check", "thcup", "--charge", str(charge),
                   "--t1", "3", "--t2", "1", "--a", "0.5")
    assert proc.returncode == 2
    # straddling interval: hypothesis violation is an input error
    proc = run_cli("check", "thcup", "--charge", str(charge),
                   "--t1", "-1", "--t2", "1", "--a", "0.5")
    assert proc.returncode == 2
    # clean run whose tolerance is unmeetable: check-failed
    charge2 = tmp_path / "charge2.json"
    write_json(charge2, charge_json([(2j, 1.0)]))
    proc = run_cli("check", "carleman", "--charge", str(charge2),
                   "--r0", "1", "--r", "10", "--tol", "1e-30")
    assert proc.returncode == 1


def test_determinism_with_seed(tmp_path):
    charge = tmp_path / "charge.json"
    write_json(charge, charge_json([(1 + 2j, 1.0), (-1 + 1j, 0.5)]))
    system = tmp_path / "system.json"
    write_json(system, {"rays": [0.0, 2.0, 4.0]})
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        proc = run_cli("balayage", "--charge", str(charge), "--system",
                       str(system), "--seed", "7", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["seed"] == 7


def test_potential_bottom_serialization(tmp_path):
    charge = tmp_path / "charge.json"
    write_json(charge, charge_json([(1.0, 1.0)]))
    out = tmp_path / "pot.json"
    proc = run_cli("potential", "--charge", str(charge), "--genus", "0",
                   "--z", "1,0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["values"][0]["value"] == "-inf"


def test_potential_sweep_routes(tmp_path):
    charge = tmp_path / "charge.json"
    write_json(charge, charge_json([(2j, 1.0)]))
    system = tmp_path / "system.json"
    write_json(system, {"rays": [0.0, PI]})
    out = tmp_path / "pot.json"
    proc = run_cli("potential", "--charge", str(charge), "--z", "5,2",
                   "--sweep", "--system", str(system), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    entry = json.loads(out.read_text())["values"][0]
    assert entry["route_difference"] <= 1e-4


def test_growth_command(tmp_path):
    charge = tmp_path / "charge.json"
    write_json(charge, charge_json([(float(k), 1.0) for k in range(1, 200)]))
    out = tmp_path / "growth.json"
    proc = run_cli("growth", "--charge", str(charge), "--p", "1",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["order_estimate"] == pytest.approx(1.0, abs=0.1)
    assert data["convergence"]["parts_residual"] <= 1e-10


def test_crg_command(tmp_path):
    charge = tmp_path / "charge.json"
    atoms = [(float(k), 1.0) for k in range(1, 2001)]
    atoms += [(-float(k), 1.0) for k in range(1, 2001)]
    write_json(charge, charge_json(atoms))
    system = tmp_path / "system.json"
    write_json(system, {"rays": [0.0, PI]})
    out = tmp_path / "crg.json"
    # truncation 2000 leaves ~0.1 combined drift; certify at a matched tol
    proc = run_cli("crg", "--charge", str(charge), "--system", str(system),
                   "--p", "1", "--truncation", "2000",
                   "--stability-tol", "0.15", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert "stable" in data and "exceptional_density" in data
    assert data["stable"] is True


def test_crg_off_system_atom_rejected(tmp_path):
    charge = tmp_path / "charge.json"
    write_json(charge, charge_json([(1j, 1.0)]))
    system = tmp_path / "system.json"
    write_json(system, {"rays": [0.0, PI]})
    proc = run_cli("crg", "--charge", str(charge), "--system", str(system),
                   "--p", "1")
    assert proc.returncode == 2


def _four_ray_atoms():
    # four bisectors of unequal density, one with a negative atom
    units = (1.0, 1j, -1.0, -1j)
    atoms = []
    for k, (u, step) in enumerate(zip(units, (0.5, 0.8, 1.1, 0.3))):
        atoms += [(u * step * i, 1.0) for i in range(1, 40 + 10 * k)]
    return atoms + [(2.05j, -0.5)]


def test_crg_exgr2_block_matches_library(tmp_path):
    atoms = _four_ray_atoms()
    charge = tmp_path / "charge.json"
    write_json(charge, charge_json(atoms))
    system = tmp_path / "system.json"
    write_json(system, {"rays": [0.0, PI / 2, PI, 3 * PI / 2]})
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        proc = run_cli("crg", "--charge", str(charge), "--system", str(system),
                       "--p", "1", "--exgr2", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()
    units = (1.0, 1j, -1.0, -1j)
    counts = [StepFunction.from_events([(abs(z), m) for z, m in atoms
                                        if abs(z / abs(z) - u) < 1e-12]) for u in units]
    want = exgr2_functionals(counts)

    def c(z):
        return {"im": z.imag, "re": z.real}
    assert json.loads(outs[0].read_text())["exgr2"] == {
        "b_values": [[t, bs] for t, bs in want["b_values"]],
        "b_scaled_limits": want["b_scaled_limits"],
        "L_trace": [[r, c(L)] for r, L in want["L_trace"]],
        "L_limit": c(want["L_limit"]),
    }


def test_crg_exgr2_needs_four_rays(tmp_path):
    charge = tmp_path / "charge.json"
    write_json(charge, charge_json([(1.0, 1.0), (2.0, 1.0)]))
    system = tmp_path / "system.json"
    write_json(system, {"rays": [0.0, 2.0, 4.0]})
    proc = run_cli("crg", "--charge", str(charge), "--system", str(system),
                   "--p", "1", "--exgr2")
    assert proc.returncode == 2
    assert "--exgr2 needs a four-ray system" in proc.stderr


def test_no_partial_file_on_failure(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    out = tmp_path / "never.json"
    proc = run_cli("balayage", "--charge", str(bad), "--system", str(bad),
                   "--out", str(out))
    assert proc.returncode == 2
    assert not out.exists()


def test_csv_format_flag(tmp_path):
    charge = tmp_path / "charge.json"
    write_json(charge, charge_json([(2j, 1.0)]))
    proc = run_cli("check", "carleman", "--charge", str(charge),
                   "--r0", "1", "--r", "10", "--csv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "lhs,rhs,residual,holds"
    assert len(lines) == 2
