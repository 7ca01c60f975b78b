"""The trap command: outputs, exit codes, determinism, round-trips."""

import copy
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from optrap.cli import main
from optrap.config import parse_config
from optrap.constants import CONST
from optrap.dynamics import MIN_RTOL
from optrap.reporting import build_report

REPO = Path(__file__).resolve().parent.parent
MG24 = REPO / "demos" / "mg24.json"
DATA = REPO / "tests" / "data"


@pytest.fixture()
def mg24_config():
    return json.loads(MG24.read_text(encoding="utf-8"))


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_outputs(tmp_path):
    code = main(["report", str(MG24), "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    text = (tmp_path / "report.txt").read_text()
    assert report["trap"]["depth_mK"] == pytest.approx(50.0, rel=1e-9)
    assert "paper_order" in text
    assert "micromotion" in text
    # hierarchy in ascending order with all eight scales
    values = [row["rad_s"] for row in report["hierarchy"]]
    assert values == sorted(values)
    assert len(values) == 8


def test_report_exit_codes(tmp_path, mg24_config):
    bad = copy.deepcopy(mg24_config)
    bad["laser"]["unknown_knob"] = 1.0
    assert main(["report", str(write_config(tmp_path, bad)),
                 "--out-dir", str(tmp_path)]) == 2
    blue = copy.deepcopy(mg24_config)
    del blue["laser"]["depth_mK"]
    blue["laser"]["power_mW"] = 100.0
    blue["laser"]["detuning_2pi_GHz"] = +300.0
    assert main(["report", str(write_config(tmp_path, blue)),
                 "--out-dir", str(tmp_path)]) == 3
    assert main(["report", str(tmp_path / "missing.json")]) == 2


def test_report_deterministic(tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    assert main(["report", str(MG24), "--out-dir", str(out1)]) == 0
    assert main(["report", str(MG24), "--out-dir", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() \
        == (out2 / "report.json").read_bytes()
    assert (out1 / "report.txt").read_bytes() \
        == (out2 / "report.txt").read_bytes()


def _power_and_static(cfg):
    del cfg["laser"]["depth_mK"]
    cfg["laser"]["power_mW"] = 3.0
    cfg["static"]["curvatures_2pi_kHz_squared"] = [100, -50, 2025]


# The expected files come from an implementation that evaluated U0 at each
# use and the blackbody estimate twice per report; computing each once
# must reproduce every byte.
@pytest.mark.parametrize("name,change", [("mg24", None),
                                         ("mg24_power_static",
                                          _power_and_static)])
def test_report_pinned_bytes(tmp_path, monkeypatch, mg24_config, name,
                             change):
    monkeypatch.delenv("TRAP_FLOAT_DIGITS", raising=False)
    if change is not None:
        change(mg24_config)
    assert main(["report", str(write_config(tmp_path, mg24_config)),
                 "--out-dir", str(tmp_path)]) == 0
    for suffix in ("json", "txt"):
        assert (tmp_path / f"report.{suffix}").read_bytes() == (
            DATA / f"report_{name}.{suffix}").read_bytes()


# dataclasses.asdict is the independent oracle for the ledger's shallow
# field read, on the pinned reports and the neutral limit
@pytest.mark.parametrize("change", [
    None, _power_and_static, lambda cfg: cfg["ion"].update(charge_e=0.0)],
    ids=["mg24", "mg24_power_static", "neutral"])
def test_ledger_json_matches_asdict(mg24_config, change):
    from dataclasses import asdict
    from optrap import corrections_table
    if change is not None:
        change(mg24_config)
    parsed = parse_config(mg24_config)
    ledger = corrections_table(parsed.setup,
                               blackbody_prefactor=parsed.blackbody_prefactor)
    rows = ledger.to_json_dict()
    expected = [asdict(entry) for entry in ledger.entries]
    assert rows == expected
    assert [list(row) for row in rows] == [list(row) for row in expected]


def test_warning_printed_as_one_line(tmp_path, mg24_config):
    # omega0 = 2pi x 2.7 kHz lies below the blackbody estimate's band
    mg24_config["laser"]["depth_mK"] = 0.01
    config = write_config(tmp_path, mg24_config)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("TRAP_FLOAT_DIGITS", None)
    proc = subprocess.run([sys.executable, "-m", "optrap.cli", "report",
                           str(config), "--out-dir", str(tmp_path / "cli")],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == (
        "warning: FrequencyRangeWarning: omega0 = 1.682e+04 rad/s outside "
        "the recommended 2pi x (10 kHz .. 1 MHz) band\n")
    assert ".py:" not in proc.stderr
    # the format does not reach the outputs, and main restores Python's
    showwarning = warnings.showwarning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["report", str(config), "--out-dir",
                     str(tmp_path / "lib")]) == 0
    assert warnings.showwarning is showwarning
    for name in ("report.json", "report.txt"):
        assert (tmp_path / "cli" / name).read_bytes() == (
            tmp_path / "lib" / name).read_bytes()


def test_report_roundtrip_recompute(tmp_path):
    # recomputing from the echoed config reproduces every value exactly
    assert main(["report", str(MG24), "--out-dir", str(tmp_path)]) == 0
    first = json.loads((tmp_path / "report.json").read_text())
    second = build_report(parse_config(first["config"]))
    assert json.dumps(first, sort_keys=True) \
        == json.dumps(second, sort_keys=True)


def test_report_neutral_note(tmp_path, mg24_config):
    neutral = copy.deepcopy(mg24_config)
    neutral["ion"]["charge_e"] = 0.0
    assert main(["report", str(write_config(tmp_path, neutral)),
                 "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert any("neutral" in note for note in report["notes"])
    by_name = {e["name"]: e for e in report["corrections"]}
    assert by_name["effective_charge_correction"]["value"] == 0.0
    assert by_name["monopole_coupling"]["value"] == 0.0
    assert by_name["octupole_correction"]["value"] > 0.0


def _nonfinite_fields(value, path=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nonfinite_fields(item, f"{path}.{key}".lstrip("."))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nonfinite_fields(item, f"{path}[{i}]")
    elif isinstance(value, float) and not np.isfinite(value):
        yield path, json.dumps(value)       # the token json writes for it


# report.json holds Python's Infinity/NaN tokens, which strict JSON parsers
# reject; these are the cases where they appear, each field pinned
@pytest.mark.parametrize("block,key,value,expected", [
    ("ion", "charge_e", 0.0, {"blackbody.heating_timescale_s": "Infinity"}),
    ("environment", "temperature_K", 0.0,
     {"blackbody.heating_timescale_s": "Infinity"}),
    ("static", "curvatures_2pi_kHz_squared", [0.0, 0.0, -100.0],
     {"trap.combined_trap_frequencies_rad_s[2]": "NaN"}),
], ids=["neutral", "zero_kelvin", "anticonfined_z"])
def test_report_json_nonfinite_tokens(tmp_path, mg24_config, block, key,
                                      value, expected):
    mg24_config[block][key] = value
    assert main(["report", str(write_config(tmp_path, mg24_config)),
                 "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / "report.json").read_text()
    tokens = []
    report = json.loads(text, parse_constant=lambda token: tokens.append(
        token) or float(token))
    assert dict(_nonfinite_fields(report)) == expected
    assert tokens == list(expected.values())


# past the float range the Bose occupation is its limit, without a numpy
# warning: 0.0 where expm1(hbar w0 / kB T) overflows, inf where 1/expm1
# overflows or hbar w0 / kB T underflows to 0 (a neutral ion, whose rate
# stays 0; a charged ion's infinite rate exits 3)
@pytest.mark.parametrize("charge,temperature,depth_mK,nbar", [
    (1.0, 1e-9, 50.0, "0.0"), (0.0, 1e308, 50.0, "Infinity"),
    (0.0, 1.7e308, 1e-20, "Infinity")], ids=["cold", "hot", "hot-x-zero"])
def test_report_occupation_limits_warn_nothing(tmp_path, capsys, mg24_config,
                                               charge, temperature, depth_mK,
                                               nbar):
    mg24_config["ion"]["charge_e"] = charge
    mg24_config["environment"]["temperature_K"] = temperature
    mg24_config["laser"]["depth_mK"] = depth_mK
    assert main(["report", str(write_config(tmp_path, mg24_config)),
                 "--out-dir", str(tmp_path)]) == 0
    assert "RuntimeWarning" not in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert json.dumps(report["blackbody"]["mean_occupation"]) == nbar


def test_float_digits_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TRAP_FLOAT_DIGITS", "4")
    assert main(["report", str(MG24), "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / "report.txt").read_text()
    assert "1.042e+09" in text  # U0/hbar at 4 significant digits
    # JSON keeps full precision regardless
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["trap"]["depth_mK"] == pytest.approx(50.0, rel=1e-12)


@pytest.mark.parametrize("digits", ["99", "0", "nine"])
@pytest.mark.parametrize("command,output", [("report", "report.json"),
                                            ("simulate", "trajectory.csv")])
def test_bad_float_digits_writes_nothing(tmp_path, monkeypatch, capsys,
                                         digits, command, output):
    monkeypatch.setenv("TRAP_FLOAT_DIGITS", digits)
    out = tmp_path / "out"
    assert main([command, str(MG24), "--out-dir", str(out)]) == 2
    assert "TRAP_FLOAT_DIGITS" in capsys.readouterr().err
    assert not (out / output).exists()
    assert not out.exists() or not any(out.iterdir())


def test_failed_write_leaves_nothing(tmp_path, monkeypatch, capsys):
    # report.txt's temp file cannot be written: report.json's temp file,
    # already written, is removed and neither output is renamed into place
    real = Path.write_text

    def write_text(self, text, **kwargs):
        if self.name == "report.txt.tmp":
            raise OSError("no space left")
        return real(self, text, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)
    out = tmp_path / "out"
    assert main(["report", str(MG24), "--out-dir", str(out)]) == 2
    assert "no space left" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("error", [OSError("no space left"),
                                   ValueError("bad cell")])
def test_failed_trajectory_piece_leaves_nothing(tmp_path, capsys,
                                                monkeypatch, mg24_config,
                                                error):
    # the CSV is formatted while it is written: an exception after the
    # first piece removes the temp file, whatever its type
    from optrap.dynamics import TrajectoryRecord

    def pieces(self):
        yield "t,x,y,z,vx,vy,vz,E_kin,E_pot,E_tot\n"
        raise error

    monkeypatch.setattr(TrajectoryRecord, "csv_pieces", pieces)
    config = write_config(tmp_path, _driven(mg24_config, drive_periods=2))
    out = tmp_path / "out"
    argv = ["simulate", str(config), "--out-dir", str(out)]
    if isinstance(error, OSError):
        assert main(argv) == 2
        assert "no space left" in capsys.readouterr().err
    else:
        with pytest.raises(ValueError, match="bad cell"):
            main(argv)
    assert list(out.iterdir()) == []


def test_driven_simulate_peak_memory_below_twice_the_csv(tmp_path,
                                                         mg24_config):
    # the CSV goes to its file block by block, so neither its text nor its
    # encoding exists whole; 1,600 drive periods are 102,401 rows
    import tracemalloc
    config = write_config(tmp_path, _driven(mg24_config, drive_periods=1600))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["simulate", str(config), "--out-dir", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    with open(out / "trajectory.csv", encoding="utf-8") as csv:
        assert sum(1 for _ in csv) == 1 + 102_401
    assert peak < 2 * (out / "trajectory.csv").stat().st_size


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def test_stability_outputs_and_determinism(tmp_path):
    args = ["stability", str(MG24), "--a", "0:1:0.05", "--q", "0:1:0.05"]
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    data1 = (out1 / "stability.csv").read_bytes()
    assert data1 == (out2 / "stability.csv").read_bytes()
    lines = data1.decode().splitlines()
    assert lines[0] == "a,q,stable,exponent"
    assert len(lines) == 1 + 21 * 21


def test_stability_boundary_cell(tmp_path):
    assert main(["stability", str(MG24), "--a", "0:0:1", "--q", "0.88:0.93:0.01",
                 "--out-dir", str(tmp_path)]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "stability.csv").read_text().splitlines()[1:]]
    flags = {float(q): stable == "1" for _a, q, stable, _e in rows}
    assert flags[0.9]
    assert not flags[0.91]


def test_stability_bad_range(tmp_path):
    assert main(["stability", str(MG24), "--a", "0:1", "--q", "0:1:0.1",
                 "--out-dir", str(tmp_path)]) == 2
    assert main(["stability", str(MG24), "--a", "1:0:0.1", "--q", "0:1:0.1",
                 "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("steps", ["0", "-5", "65537"])
def test_stability_bad_steps_flag(tmp_path, capsys, steps):
    out = tmp_path / "out"
    assert main(["stability", str(MG24), "--a", "0:0.2:0.1",
                 "--q", "0:0.2:0.1", "--steps", steps,
                 "--out-dir", str(out)]) == 2
    assert "--steps" in capsys.readouterr().err
    assert not (out / "stability.csv").exists()


@pytest.mark.parametrize("steps", ["abc", 0.5, 0, 65537])
def test_stability_bad_config_steps(tmp_path, capsys, mg24_config, steps):
    cfg = copy.deepcopy(mg24_config)
    cfg["scan"]["monodromy_steps"] = steps
    out = tmp_path / "out"
    assert main(["stability", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)]) == 2
    assert "scan.monodromy_steps" in capsys.readouterr().err
    assert not (out / "stability.csv").exists()


def test_stability_steps_flag_overrides_config(tmp_path, mg24_config):
    cfg = copy.deepcopy(mg24_config)
    cfg["scan"] = {"a_min": 0.0, "a_max": 0.1, "a_step": 0.1,
                   "q_min": 0.9, "q_max": 0.9, "q_step": 0.1,
                   "monodromy_steps": 8}
    path = write_config(tmp_path, cfg)
    assert main(["stability", str(path), "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["stability", str(path), "--steps", "256",
                 "--out-dir", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "stability.csv").read_bytes() \
        != (tmp_path / "b" / "stability.csv").read_bytes()


def test_stability_from_config_scan_block(tmp_path, mg24_config):
    cfg = copy.deepcopy(mg24_config)
    cfg["scan"] = {"a_min": 0.0, "a_max": +0.2, "a_step": 0.1,
                   "q_min": 0.0, "q_max": 0.2, "q_step": 0.1}
    assert main(["stability", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "stability.csv").read_text().splitlines()
    assert len(lines) == 1 + 9


def test_stability_default_step_cap_exits_3(tmp_path, capsys):
    grid = ["--a=1e7:1e7:1", "--q=0:0:1"]
    out = tmp_path / "out"
    assert main(["stability", str(MG24), *grid, "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "|a| = 1e+07, |q| = 0" in err
    assert "limit 65536" in err
    assert not (out / "stability.csv").exists()
    # an explicit count is used verbatim and is not capped
    assert main(["stability", str(MG24), *grid, "--steps", "1",
                 "--out-dir", str(out)]) == 0
    assert (out / "stability.csv").exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_full_frequency(tmp_path, capsys):
    assert main(["simulate", str(MG24), "--out-dir", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    freq = float(stdout.split("dominant_frequency_rad_s=")[1].split()[0])
    report_code = main(["report", str(MG24), "--out-dir", str(tmp_path)])
    assert report_code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    omega_r = report["trap"]["optical_trap_frequencies_rad_s"][0]
    assert freq == pytest.approx(omega_r, rel=1e-3)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,z,vx,vy,vz,E_kin,E_pot,E_tot"
    assert len(lines) == 1 + 32769


def test_simulate_driven_q0_energy_and_amplitude(tmp_path, mg24_config):
    cfg = copy.deepcopy(mg24_config)
    cfg["simulate"] = {
        "mode": "driven",
        "initial": {"position_m": 1e-9, "velocity_m_s": 0.0},
        "options": {"omega0_2pi_kHz": 100.0, "drive_ratio": 10.0,
                    "field_V_m": 1e6, "drive_periods": 640}}
    cfg["ion"]["charge_e"] = 0.0
    path = write_config(tmp_path, cfg)
    assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    energy = rows[:, 9]
    assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-9


def test_simulate_driven_steady_amplitude(tmp_path, mg24_config):
    from optrap import DrivenOscillatorSpec
    from optrap.constants import CONST
    omega0 = 2 * np.pi * 1e5
    probe = DrivenOscillatorSpec(
        omega0=omega0, drive_frequency=1000 * omega0, charge=CONST.e_charge,
        field_amplitude=1e6, mass=24 * CONST.atomic_mass_unit)
    steady = probe.steady_amplitude
    cfg = copy.deepcopy(mg24_config)
    cfg["simulate"] = {
        "mode": "driven",
        "initial": {"position_m": -steady, "velocity_m_s": 0.0},
        "options": {"omega0_2pi_kHz": 100.0, "drive_ratio": 1000.0,
                    "field_V_m": 1e6, "drive_periods": 64}}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    times, xs = rows[:, 0], rows[:, 1]
    # project the drive quadrature directly from the emitted CSV
    amp = -2.0 * np.mean(xs[:-1] * np.cos(probe.drive_frequency * times[:-1]))
    assert amp == pytest.approx(steady, rel=1e-6)


def test_simulate_requires_block(tmp_path, mg24_config):
    cfg = copy.deepcopy(mg24_config)
    del cfg["simulate"]
    assert main(["simulate", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(tmp_path)]) == 2


def test_simulate_escape_is_physics_error(tmp_path, mg24_config):
    cfg = copy.deepcopy(mg24_config)
    cfg["simulate"]["t_end_s"] = 5e-3
    cfg["simulate"]["options"] = {"include_radiation_pressure": True,
                                  "samples": 101}
    assert main(["simulate", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(tmp_path)]) == 3


@pytest.mark.parametrize("mode,key,value", [
    ("full", "method", "foo"),
    ("full", "force_model", "bar"),
    ("full", "samples", 0),
    ("full", "samples", 1),
    ("full", "samples", 2.5),
    ("full", "samples", True),
    ("full", "rtol", -1),
    ("full", "rtol", 0),
    ("full", "rtol", 1e-15),
    ("full", "rtol", float(np.nextafter(MIN_RTOL, 0.0))),
    ("full", "atol", -1e-16),
    ("full", "atol", 0),
    ("full", "atol", 1e-200),
    ("full", "include_radiation_pressure", "yes"),
    ("driven", "steps_per_period", 10),
    ("driven", "steps_per_period", 64.0),
    ("driven", "drive_periods", "x"),
    ("driven", "drive_periods", 0),
    ("driven", "drive_periods", True),
])
def test_simulate_bad_option_exits_2_before_write(tmp_path, capsys,
                                                  mg24_config, mode, key,
                                                  value):
    cfg = copy.deepcopy(mg24_config)
    if mode == "driven":
        cfg["simulate"] = {"mode": "driven", "options": {
            "omega0_2pi_kHz": 100.0, "drive_ratio": 10.0, "field_V_m": 1.0,
            "drive_periods": 2}}
    cfg["simulate"]["t_end_s"] = 1e-7
    cfg["simulate"]["options"][key] = value
    out = tmp_path / "out"
    assert main(["simulate", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)]) == 2
    assert f"simulate.options.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_at_min_rtol_warns_nothing(tmp_path, capsys, mg24_config):
    # MIN_RTOL is DOP853's own floor, which scipy takes without a warning;
    # 10 us spans the two cycles the dominant frequency needs
    mg24_config["simulate"]["t_end_s"] = 1e-5
    mg24_config["simulate"]["options"].update(rtol=MIN_RTOL, samples=65)
    assert main(["simulate", str(write_config(tmp_path, mg24_config)),
                 "--out-dir", str(tmp_path)]) == 0
    assert "warning:" not in capsys.readouterr().err


def test_simulate_failure_after_integration_writes_nothing(
        tmp_path, mg24_config, monkeypatch):
    from optrap import cli
    from optrap.errors import PhysicsError

    def fail(times, values):
        raise PhysicsError("no dominant frequency")
    monkeypatch.setattr(cli, "dominant_frequency", fail)
    cfg = copy.deepcopy(mg24_config)
    cfg["simulate"]["t_end_s"] = 1e-7
    cfg["simulate"]["options"]["samples"] = 9
    out = tmp_path / "out"
    assert main(["simulate", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)]) == 3
    assert not (out / "trajectory.csv").exists()


# ---------------------------------------------------------------------------
# the input boundary: a bad input exits 2 or 3, names the problem and
# writes nothing
# ---------------------------------------------------------------------------

_BAD_RANGES = ["nan:1:0.1", "0:inf:0.1", "0:1:inf", "0:1:1e-13",
               "-1e308:1e308:1"]


def _range_flag(tmp_path, cfg, text):
    return ["stability", str(MG24), f"--a={text}", "--q", "0:0.1:0.1"]


def _range_block(tmp_path, cfg, text):
    lo, hi, step = (float(v) for v in text.split(":"))
    cfg["scan"] = {"a_min": lo, "a_max": hi, "a_step": step,
                   "q_min": 0.0, "q_max": 0.1, "q_step": 0.1}
    return ["stability", str(write_config(tmp_path, cfg))]


def _report_power(tmp_path, cfg, power):
    del cfg["laser"]["depth_mK"]
    cfg["laser"]["power_mW"] = power
    return ["report", str(write_config(tmp_path, cfg))]


def _report_value(tmp_path, cfg, change):
    section, key, value = change
    cfg[section][key] = value
    return ["report", str(write_config(tmp_path, cfg))]


def _report_power_static(tmp_path, cfg, power):
    cfg["static"]["curvatures_2pi_kHz_squared"] = [100.0, 100.0, 100.0]
    return _report_power(tmp_path, cfg, power)


_MODEL_REJECTS = [("static", "curvatures_2pi_kHz_squared", [1e308, 0, 0]),
                  ("ion", "mass_u", 1e-300),
                  ("transition", "linewidth_2pi_MHz", 1e300),
                  ("transition", "wavelength_nm", 1e-300),
                  ("laser", "waist_um", 1e300)]


def _config_is_directory(tmp_path, cfg, _):
    (tmp_path / "cfg_dir").mkdir()
    return ["report", str(tmp_path / "cfg_dir")]


def _config_not_utf8(tmp_path, cfg, _):
    path = tmp_path / "cfg_utf16.json"
    path.write_bytes(json.dumps(cfg).encode("utf-16"))
    return ["report", str(path)]


def _out_dir_is_file(tmp_path, cfg, _):
    (tmp_path / "taken").write_text("not a directory\n", encoding="utf-8")
    return ["report", str(MG24), "--out-dir", str(tmp_path / "taken")]


def _report_blackbody(tmp_path, cfg, values):
    cfg["environment"]["temperature_K"] = values[0]
    cfg["blackbody"]["prefactor_multiplier"] = values[1]
    return ["report", str(write_config(tmp_path, cfg))]


def _output_is_directory(tmp_path, cfg, output):
    command, name = output
    (tmp_path / "out" / name).mkdir(parents=True)
    if command == "simulate":   # a short driven run
        _driven(cfg, drive_periods=2)
    return [command, str(write_config(tmp_path, cfg)),
            "--out-dir", str(tmp_path / "out")]


@pytest.mark.parametrize("make,value,code,named", [
    *[pytest.param(_range_flag, text, 2, "--a", id=f"flag-{text}")
      for text in _BAD_RANGES],
    *[pytest.param(_range_block, text, 2, "scan.a_", id=f"block-{text}")
      for text in _BAD_RANGES],
    pytest.param(_report_power, 0, 2, "laser.power_mW", id="power-0"),
    pytest.param(_report_power, 1e-300, 3, "secular frequency",
                 id="power-underflow"),
    # the static field confines, but U0 underflows to 0 J
    pytest.param(_report_power_static, 1e-300, 3, "U0 > 0",
                 id="power-underflow-static"),
    pytest.param(_report_value,
                 ("static", "curvatures_2pi_kHz_squared", [-1e12] * 3), 3,
                 "secular frequency", id="all-anticonfined"),
    *[pytest.param(_report_value, change, 2, f"{change[0]}.{change[1]}",
                   id=f"model-rejects-{change[1]}")
      for change in _MODEL_REJECTS],
    pytest.param(_report_power, 1e300, 3, "laser.power_mW",
                 id="power-overflow"),
    pytest.param(_report_value, ("laser", "depth_mK", 1e305), 3,
                 "laser.depth_mK", id="depth-overflow"),
    # the dipole moment squared underflows, so the depth cannot be inverted
    pytest.param(_report_value, ("transition", "linewidth_2pi_MHz", 5e-324),
                 2, "transition.linewidth_2pi_MHz",
                 id="subnormal-linewidth-depth"),
    # |q| = 3.1e-14: outside the small-parameter domain of the |q|/2 law
    pytest.param(_report_value, ("laser", "depth_mK", 1e8), 3, "|q|/2",
                 id="micromotion-law-domain"),
    pytest.param(_config_is_directory, None, 2, "cfg_dir", id="config-dir"),
    pytest.param(_config_not_utf8, None, 2, "cfg_utf16.json",
                 id="config-not-utf8"),
    pytest.param(_out_dir_is_file, None, 2, "taken", id="out-dir-is-file"),
    # the other output files are not written either, nor any temp file
    pytest.param(_output_is_directory, ("report", "report.txt"), 2,
                 "report.txt", id="report-txt-is-dir"),
    pytest.param(_output_is_directory, ("simulate", "trajectory.csv"), 2,
                 "trajectory.csv", id="trajectory-csv-is-dir"),
    # an infinite thermal occupation, or an infinite Larmor rate
    pytest.param(_report_blackbody, (1.7e308, 1.0), 3,
                 "blackbody heating rate", id="blackbody-occupation-overflow"),
    pytest.param(_report_blackbody, (1e12, 1.7e308), 3,
                 "blackbody heating rate", id="blackbody-prefactor-overflow"),
])
def test_bad_input_exits_2_or_3_and_writes_nothing(
        tmp_path, capsys, mg24_config, make, value, code, named):
    argv = make(tmp_path, copy.deepcopy(mg24_config), value)
    if "--out-dir" not in argv:
        argv += ["--out-dir", str(tmp_path / "out")]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == code
    assert named in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


# ---------------------------------------------------------------------------
# the simulate block: duration, float range and trajectory rows are checked
# when the config is read
# ---------------------------------------------------------------------------

def _driven(cfg, t_end_s=None, **options):
    cfg["simulate"] = {"mode": "driven", "options": {
        "omega0_2pi_kHz": 100.0, "drive_ratio": 10.0, "field_V_m": 1.0,
        **options}}
    if t_end_s is not None:
        cfg["simulate"]["t_end_s"] = t_end_s
    return cfg


def _full(cfg, t_end_s=None, **options):
    cfg["simulate"]["options"].update(options)
    if t_end_s is not None:
        cfg["simulate"]["t_end_s"] = t_end_s
    return cfg


@pytest.mark.parametrize("change,named", [
    pytest.param(lambda cfg: _driven(cfg, t_end_s=1e-7, drive_periods=2),
                 "simulate.t_end_s, simulate.options.drive_periods",
                 id="t_end_s-and-drive_periods"),
    pytest.param(lambda cfg: _driven(cfg, drive_periods=2,
                                     omega0_2pi_kHz=1e306),
                 "simulate.options.omega0_2pi_kHz", id="omega0-overflow"),
    pytest.param(lambda cfg: _driven(cfg, drive_periods=2,
                                     omega0_2pi_kHz=1e300, drive_ratio=1e10),
                 "simulate.options.drive_ratio", id="drive-overflow"),
    pytest.param(lambda cfg: _driven(cfg, drive_periods=10**15),
                 "simulate.options.drive_periods", id="drive_periods-rows"),
    pytest.param(lambda cfg: _driven(cfg, t_end_s=1e300), "simulate.t_end_s",
                 id="t_end_s-rows"),
    pytest.param(lambda cfg: _full(cfg, samples=10**15),
                 "simulate.options.samples", id="samples-rows"),
    pytest.param(lambda cfg: _full(cfg, samples=10**400),
                 "simulate.options.samples", id="samples-past-float-range"),
    pytest.param(lambda cfg: _full(cfg, method="DOP853"),
                 "unknown key: simulate.options.method", id="method"),
    # samples closer than the smallest normal float; at 1e-318 over 32,769
    # samples the grid happens to increase, but the rule refuses it too
    pytest.param(lambda cfg: _full(cfg, t_end_s=5e-324),
                 "simulate.t_end_s / simulate.options.samples",
                 id="t_end_s-subnormal"),
    pytest.param(lambda cfg: _full(cfg, t_end_s=1e-318, samples=32769),
                 "simulate.t_end_s / simulate.options.samples",
                 id="sample-spacing-subnormal"),
])
def test_simulate_block_refused_when_read(tmp_path, capsys, mg24_config,
                                          change, named):
    config = write_config(tmp_path, change(mg24_config))
    out = tmp_path / "out"
    assert main(["simulate", str(config), "--out-dir", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


# the model is non-relativistic: an initial speed |v| >= c is refused; a
# full-mode start is refused by its norm
_BELOW_C = math.nextafter(CONST.c, 0.0)


@pytest.mark.parametrize("mode,velocity,refused", [
    ("full", [1e200, 0.0, 0.0], True), ("full", [0.0, CONST.c, 0.0], True),
    ("full", [0.0, _BELOW_C, 0.0], False),
    ("full", [2.2e8, 2.2e8, 0.0], True), ("full", [2e8, 2e8, 0.0], False),
    ("driven", 1e200, True), ("driven", -CONST.c, True),
    ("driven", _BELOW_C, False)])
def test_initial_speed_must_be_below_c(tmp_path, capsys, mg24_config, mode,
                                       velocity, refused):
    if mode == "driven":
        cfg = _driven(mg24_config, drive_periods=2)
        cfg["simulate"]["initial"] = {"velocity_m_s": velocity}
    else:
        cfg = mg24_config
        cfg["simulate"]["initial"]["velocity_m_s"] = velocity
    if not refused:
        parse_config(cfg)
        return
    out = tmp_path / "out"
    assert main(["simulate", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: simulate.initial.velocity_m_s: ")
    assert "speed of light" in err
    assert not out.exists()


@pytest.mark.parametrize("t_end_s", [1.0, 1e300])
def test_full_span_refused_before_integrating(tmp_path, capsys, mg24_config,
                                              t_end_s):
    # mg24 at t_end_s 1.0 is ~190,000 radial periods
    mg24_config["simulate"]["t_end_s"] = t_end_s
    out = tmp_path / "out"
    assert main(["simulate", str(write_config(tmp_path, mg24_config)),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "simulate.t_end_s" in err
    assert "more than 10000" in err
    assert not out.exists()


# a trajectory past the float range is a numerical failure, not a file;
# at 1e-150 kHz the steady amplitude is ~1e297 m, and its potential
# energy overflows
@pytest.mark.parametrize("options", [{"field_V_m": 1e300},
                                     {"omega0_2pi_kHz": 1e-300},
                                     {"omega0_2pi_kHz": 1e-150}],
                         ids=["field-1e300", "omega0-1e-300", "omega0-1e-150"])
def test_simulate_nonfinite_trajectory_exits_3(tmp_path, capsys, mg24_config,
                                               options):
    config = write_config(tmp_path, _driven(mg24_config, drive_periods=2,
                                            **options))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["simulate", str(config), "--out-dir", str(out)]) == 3
    assert "float range" in capsys.readouterr().err
    assert not out.exists()


# a secular frequency whose square is subnormal (w0 < 2^-511 rad/s, i.e.
# omega0_2pi_kHz below ~2.37e-158) is refused by the run, not integrated
@pytest.mark.parametrize("khz,code", [(1e-300, 3), (1e-160, 3), (1e-150, 0)])
def test_driven_low_frequency_bound(tmp_path, capsys, mg24_config, khz, code):
    cfg = _driven(mg24_config, drive_periods=2, omega0_2pi_kHz=khz)
    cfg["ion"]["charge_e"] = 0.0
    cfg["simulate"]["initial"] = {"position_m": 1e-9}
    out = tmp_path / "out"
    assert main(["simulate", str(write_config(tmp_path, cfg)),
                 "--out-dir", str(out)]) == code
    if code:
        assert "float range" in capsys.readouterr().err
        assert not out.exists()
    else:
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        omega0 = 2 * np.pi * khz * 1e3
        assert rows[:, 1] == pytest.approx(1e-9 * np.cos(omega0 * rows[:, 0]),
                                           rel=1e-11)


# resonance and unreachable ratios are physics, decided by the run
@pytest.mark.parametrize("ratio", [1.0, 1e7])
def test_driven_physics_refusal_only_from_simulate(tmp_path, mg24_config,
                                                   ratio):
    config = write_config(tmp_path, _driven(mg24_config, drive_periods=2,
                                            drive_ratio=ratio))
    assert main(["report", str(config), "--out-dir", str(tmp_path)]) == 0
    out = tmp_path / "out"
    assert main(["simulate", str(config), "--out-dir", str(out)]) == 3
    assert not out.exists()


def _run_cli_process(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("TRAP_FLOAT_DIGITS", None)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          cwd=tmp_path)


def test_focus_scattering_warning_printed_once(tmp_path, mg24_config):
    # s0 = 0.14 at the focus; |delta| is 7500 linewidths
    mg24_config["laser"]["depth_mK"] = 1000.0
    config = write_config(tmp_path, mg24_config)
    proc = _run_cli_process(tmp_path, "-m", "optrap.cli", "report",
                            str(config), "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == (
        "warning: SaturationValidityWarning: saturation above 0.1: "
        "low-saturation scattering formula is inaccurate\n")


def test_import_cli_loads_no_scipy(tmp_path):
    proc = _run_cli_process(
        tmp_path, "-c", "import sys, optrap.cli; print(sorted(m for m in "
        "sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command", ["simulate-full", "simulate-driven",
                                     "stability", "report"])
def test_commands_load_no_scipy(tmp_path, mg24_config, command):
    # scipy is a test dependency: each command runs on the package's ports
    # (DOP853 and the bounded minimiser in a full simulate)
    if command == "simulate-full":
        _full(mg24_config, t_end_s=1e-5, samples=65)
    elif command == "simulate-driven":
        _driven(mg24_config, drive_periods=2)
    mg24_config["scan"].update(a_step=0.1, q_step=0.1)
    config = write_config(tmp_path, mg24_config)
    argv = [command.split("-")[0], str(config), "--out-dir", str(tmp_path)]
    proc = _run_cli_process(
        tmp_path, "-c", "import sys; from optrap.cli import main; "
        f"code = main({argv!r}); print(code, sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_driven_overflow_prints_only_its_exit_line(tmp_path, mg24_config):
    config = write_config(tmp_path, _driven(mg24_config, drive_periods=2,
                                            field_V_m=1e300))
    out = tmp_path / "out"
    proc = _run_cli_process(tmp_path, "-m", "optrap.cli", "simulate",
                            str(config), "--out-dir", str(out))
    assert proc.returncode == 3
    assert proc.stderr == ("physics error: the trajectory leaves the float "
                           "range\n")
    assert not out.exists()


def test_motionless_x_prints_nan_and_one_warning(tmp_path, mg24_config):
    # at rest at the focus x(t) stays 0: no dominant frequency to print
    mg24_config["simulate"]["initial"]["position_m"] = [0.0, 0.0, 0.0]
    mg24_config["simulate"]["t_end_s"] = 5e-6
    _full(mg24_config, samples=101)
    config = write_config(tmp_path, mg24_config)
    out = tmp_path / "out"
    proc = _run_cli_process(tmp_path, "-m", "optrap.cli", "simulate",
                            str(config), "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "dominant_frequency_rad_s=nan samples=101" in proc.stdout
    assert proc.stderr == ("warning: FrequencyRangeWarning: x(t) does not "
                           "move: the dominant frequency of the x component "
                           "is nan\n")
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 101
    assert all(row.split(",")[1] == "0" for row in rows)


@pytest.mark.parametrize("samples", [9, 101])
def test_under_two_cycles_prints_nan_and_one_warning(tmp_path, capsys,
                                                     mg24_config, samples):
    from optrap.dynamics import integrate_full
    # 5e-6 s is 0.95 periods of mg24's radial frequency (1.189e6 rad/s),
    # and neither sample count aliases it
    mg24_config["simulate"]["t_end_s"] = 5e-6
    _full(mg24_config, samples=samples)
    config = write_config(tmp_path, mg24_config)
    assert main(["simulate", str(config), "--out-dir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert f"dominant_frequency_rad_s=nan samples={samples}" in out
    assert err == ("warning: FrequencyRangeWarning: x(t) spans fewer than "
                   "two cycles: the dominant frequency of the x component "
                   "is nan\n")
    parsed = parse_config(mg24_config)
    sim = parsed.simulate
    record = integrate_full(parsed.setup, sim["initial"], 5e-6,
                            **sim["options"])
    assert (tmp_path / "trajectory.csv").read_text() == record.to_csv_text()


def test_start_beyond_escape_radius_exits_3(tmp_path, mg24_config):
    # the force at 1e300 m is NaN, and the escape event never crosses
    mg24_config["simulate"]["initial"]["position_m"] = [1e300, 0.0, 0.0]
    config = write_config(tmp_path, mg24_config)
    out = tmp_path / "out"
    proc = _run_cli_process(tmp_path, "-m", "optrap.cli", "simulate",
                            str(config), "--out-dir", str(out))
    assert proc.returncode == 3
    assert proc.stderr == "physics error: ion beyond 100 waists at t = 0 s\n"
    assert not out.exists()


# a refused command prints its one error line and none of the warnings
# raised on the way to it
@pytest.mark.parametrize("args,beam,error", [
    pytest.param(["report", "{config}"], {"depth_mK": 1e300},
                 "physics error: laser.depth_mK is too large: the trap depth "
                 "overflows\n", id="report-depth-overflow"),
    pytest.param(["report", "{config}"], {"power_mW": 1e300},
                 "physics error: laser.power_mW is too large: the trap depth "
                 "overflows\n", id="report-power-overflow"),
    pytest.param(["stability", str(MG24), "--a=1e200:1e200:1", "--q=0:0:1",
                  "--steps", "1"], {"depth_mK": 1e300},
                 "physics error: monodromy matrix overflows: |a| or |q| is "
                 "too large to integrate over one period\n",
                 id="stability-overflow"),
])
def test_refused_command_prints_one_line(tmp_path, mg24_config, args, beam,
                                         error):
    mg24_config["transition"]["wavelength_nm"] = 1e-30
    del mg24_config["laser"]["depth_mK"]
    mg24_config["laser"].update(beam)
    config = str(write_config(tmp_path, mg24_config))
    out = tmp_path / "out"
    proc = _run_cli_process(tmp_path, "-m", "optrap.cli",
                            *[arg.format(config=config) for arg in args],
                            "--out-dir", str(out))
    assert proc.returncode == 3
    assert proc.stderr == error
    assert not out.exists()


@pytest.mark.parametrize("samples,aliased", [(3, True), (4097, False)])
def test_aliased_samples_warn_in_one_line(tmp_path, capsys, mg24_config,
                                          samples, aliased):
    from optrap.dynamics import integrate_full
    # mg24's radial frequency is 1.189e6 rad/s: pi/omega = 2.64e-6 s, so
    # 3 samples over 1e-5 s alias it and 4097 do not
    mg24_config["simulate"]["t_end_s"] = 1e-5
    _full(mg24_config, samples=samples)
    config = write_config(tmp_path, mg24_config)
    assert main(["simulate", str(config), "--out-dir", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    if aliased:
        assert err.startswith("warning: FrequencyRangeWarning: "
                              "simulate.options.samples: 3 samples")
        assert err.count("\n") == 1 and "aliased" in err
    else:
        assert err == ""
    # the warning changes no output byte
    parsed = parse_config(mg24_config)
    sim = parsed.simulate
    record = integrate_full(parsed.setup, sim["initial"], 1e-5,
                            **sim["options"])
    assert (tmp_path / "trajectory.csv").read_text() == record.to_csv_text()


# ---------------------------------------------------------------------------
# one argument parser per process
# ---------------------------------------------------------------------------

def _files(out_dir):
    if not out_dir.exists():
        return {}
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


def test_reused_parser_carries_no_state(tmp_path, monkeypatch, capsys,
                                        mg24_config):
    # four commands in this process share one parser; each gives the files,
    # exit code and output lines of the same command run alone
    from optrap.cli import build_parser
    monkeypatch.delenv("TRAP_FLOAT_DIGITS", raising=False)
    config = str(write_config(tmp_path, mg24_config))
    commands = [
        (["stability", config, "--a", "0:0.2:0.1", "--q", "0:0.3:0.1",
          "--steps", "64"], 0),
        (["stability", config], 0),     # the scan block, default steps
        (["stability", config, "--steps", "many"], 2),      # from argparse
        (["report", config], 0),
    ]
    parser = build_parser()
    for k, (argv, expected) in enumerate(commands):
        shared = tmp_path / "shared" / str(k)
        alone = tmp_path / "alone" / str(k)
        try:
            code = main([*argv, "--out-dir", str(shared)])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = _run_cli_process(tmp_path, "-m", "optrap.cli", *argv,
                                "--out-dir", str(alone))
        assert code == proc.returncode == expected, proc.stderr
        assert out == proc.stdout.replace(str(alone), str(shared))
        assert err == proc.stderr
        assert _files(shared) == _files(alone)
        assert bool(_files(alone)) == (expected == 0)
    assert build_parser() is parser


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    import argparse
    from optrap.cli import build_parser
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    assert main(["report", str(MG24), "--out-dir", str(tmp_path)]) == 0
    assert len(built) == 4              # the parser and its three commands
    built.clear()
    assert main(["report", str(MG24), "--out-dir", str(tmp_path)]) == 0
    assert main(["stability", str(MG24), "--a", "0:0:1", "--q", "0:0:1",
                 "--out-dir", str(tmp_path)]) == 0
    with pytest.raises(SystemExit):
        main(["report"])
    assert built == []
