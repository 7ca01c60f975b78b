"""The seeded workloads: ``numerics``, made of three parts, and ``report-sweep``.

Each workload turns a seed into generated configs and argv (the program
sees nothing else), makes its fixed batch of program calls, and checks
every call's output with :mod:`oracles`.  Program calls go through the
module attributes ``optrap.cli.main`` and
``optrap.mathieu_floquet.monodromy_stability`` looked up at call time,
so the tracer in :mod:`tracing` sees them when it is installed.
"""

import contextlib
import io
import json
import math
import random
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import oracles

# single-Mg+ reference trap: the shape of demos/mg24.json
BASE_TRAP = {
    "ion": {"mass_u": 24.0, "charge_e": 1.0},
    "transition": {"wavelength_nm": 280.0, "linewidth_2pi_MHz": 40.0},
    "laser": {"waist_um": 7.0, "detuning_2pi_GHz": -300.0, "depth_mK": 50.0},
}


@dataclass(slots=True)
class Call:
    """One timed program call and what it left behind.

    The worker keeps every call of a run until the checks after the timed
    loop, so a call holds its output directory as a string: a Path per
    call would make peak RSS grow with the number of batches.
    """

    kind: str           # "cli" (a cli.main call) or "lib"
    seconds: float
    exit_code: object   # int; a string for an exception that escaped
    out: str = None     # output directory
    item: object = None  # the generated input behind the call
    value: object = None  # library return value
    owner: str = ""       # the part of a composite workload that made it

    @property
    def out_dir(self):
        return Path(self.out)


def write_json(path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
    return str(path)


def cli_call(argv, item=None, out_dir=None):
    """One in-process ``trap`` command, its output silenced, its exit code kept."""
    import optrap.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        t0 = perf_counter()
        try:
            code = optrap.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - an escaped exception is a failure
            code = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
    calibrate.ACTIVE.between_calls()
    return Call("cli", seconds, code, None if out_dir is None else str(out_dir), item)


def cli_outcome(call, expect_files, refusal=None):
    """('ok'|'refused'|'failed', reason) from the exit code and files left.

    Exit 0 must leave every expected file; exit 2/3 must leave none of
    them.  A clean refusal counts as 'refused' only when its exit code is
    ``refusal``, the one the oracle predicts; any other refusal fails.
    """
    out_dir = call.out_dir
    present = [f for f in expect_files if (out_dir / f).exists()] \
        if out_dir.exists() else []
    if out_dir.exists() and any(p.suffix == ".tmp" for p in out_dir.iterdir()):
        return "failed", "temporary file left behind"
    if call.exit_code == 0:
        if len(present) != len(expect_files):
            return "failed", f"exit 0 but only {present} written"
        return "ok", ""
    if call.exit_code in (2, 3):
        if present:
            return "failed", f"exit {call.exit_code} left {present}"
        if call.exit_code == refusal:
            return "refused", f"exit {call.exit_code}"
        return "failed", f"unexpected refusal: exit {call.exit_code}"
    return "failed", f"exit {call.exit_code!r}"


class Workload:
    """Interface of a workload; BENCHMARK.json and README.md say why each exists."""

    name = ""

    def generate(self, seed, work, smoke=False):
        """Inputs for ``seed``, written under ``work``."""
        raise NotImplementedError

    def warm_up(self, inputs, work):
        raise NotImplementedError

    def run_batch(self, inputs, batch_dir):
        """The timed, fixed batch of program calls: a list of Call."""
        raise NotImplementedError

    def check(self, inputs, call):
        """('ok'|'refused'|'failed', reason) for one call."""
        raise NotImplementedError


class StabilityMap(Workload):
    """One `trap stability` call on an n_a x n_q grid over a in [-0.5, 3],
    q in [0, 3], with a seeded sub-step origin."""

    name = "stability-map"
    A_LO, A_HI, Q_HI = -0.5, 3.0, 3.0

    def __init__(self, n_a, n_q):
        self.n_a, self.n_q = n_a, n_q
        self.A_STEP = (self.A_HI - self.A_LO) / (n_a - 1)
        self.Q_STEP = self.Q_HI / (n_q - 1)

    def generate(self, seed, work, smoke=False):
        rng = random.Random(seed)
        n_a, n_q = (6, 5) if smoke else (self.n_a, self.n_q)
        a0 = self.A_LO + rng.uniform(0.05, 0.95) * self.A_STEP
        q0 = rng.uniform(0.05, 0.95) * self.Q_STEP
        cfg = write_json(work / "trap.json", BASE_TRAP)
        argv = ["stability", cfg,
                # "--a=" form: argparse would read "-0.4:..." as an option
                f"--a={a0!r}:{a0 + (n_a - 0.5) * self.A_STEP!r}:{self.A_STEP!r}",
                f"--q={q0!r}:{q0 + (n_q - 0.5) * self.Q_STEP!r}:{self.Q_STEP!r}"]
        if smoke:
            argv += ["--steps", "256"]
        return {"argv": argv, "cfg": cfg,
                "a": a0 + self.A_STEP * np.arange(n_a),
                "q": q0 + self.Q_STEP * np.arange(n_q)}

    def warm_up(self, inputs, work):
        cli_call(["stability", inputs["cfg"], "--a", "0.1:0.2:0.1", "--q",
                  "0.1:0.2:0.1", "--steps", "64", "--out-dir", str(work / "warm")])

    def run_batch(self, inputs, batch_dir):
        return [cli_call(inputs["argv"] + ["--out-dir", str(batch_dir)],
                         out_dir=batch_dir)]

    def check(self, inputs, call):
        status, reason = cli_outcome(call, ["stability.csv"])
        if status != "ok":
            return status, reason
        reason, near = oracles.check_stability_csv(
            (call.out_dir / "stability.csv").read_text(), inputs["a"], inputs["q"])
        inputs["near_boundary_cells"] = near   # reported in the run detail
        return ("failed", reason) if reason else ("ok", "")


class Micromotion(Workload):
    """`monodromy_stability` at seeded stable points on a = 2|q|, and
    3 driven `trap simulate` calls of 200 drive periods."""

    name = "micromotion"
    DRIVE_RATIOS = (10.0, 100.0, 1000.0)

    def __init__(self, points):
        self.points = points

    def generate(self, seed, work, smoke=False):
        rng = random.Random(seed)
        points = []
        for _ in range(1 if smoke else self.points):
            q = rng.uniform(0.002, 0.05) * rng.choice((-1.0, 1.0))
            points.append((2.0 * abs(q), q))
        drives = []
        for i, ratio in enumerate(self.DRIVE_RATIOS):
            mass_u = rng.uniform(6.0, 200.0)
            charge_e = float(rng.choice((1, 2, 3)))
            khz = rng.uniform(50.0, 500.0)
            field = rng.uniform(0.1, 10.0)
            w0 = 2.0 * math.pi * khz * 1e3
            amp = (charge_e * oracles.E_CHARGE * field
                   / (mass_u * oracles.AMU * ((ratio * w0) ** 2 - w0 ** 2)))
            cfg = dict(BASE_TRAP, ion={"mass_u": mass_u, "charge_e": charge_e})
            cfg["simulate"] = {
                "mode": "driven",
                "initial": {"position_m": rng.uniform(-1.0, 1.0) * amp,
                            "velocity_m_s": rng.uniform(-1.0, 1.0) * amp * w0},
                "options": {"omega0_2pi_kHz": khz, "drive_ratio": ratio,
                            "field_V_m": field,
                            "drive_periods": 4 if smoke else 200}}
            drives.append((write_json(work / f"driven{i}.json", cfg), cfg))
        return {"points": points, "drives": drives,
                "steps": {"steps": 256} if smoke else {}}

    def warm_up(self, inputs, work):
        import optrap.mathieu_floquet
        optrap.mathieu_floquet.monodromy_stability(inputs["points"][0], steps=64)
        cfg = json.loads(json.dumps(inputs["drives"][0][1]))
        cfg["simulate"]["options"]["drive_periods"] = 2
        cli_call(["simulate", write_json(work / "warm.json", cfg),
                  "--out-dir", str(work / "warm")])

    def run_batch(self, inputs, batch_dir):
        import optrap.mathieu_floquet
        calls = []
        for point in inputs["points"]:
            t0 = perf_counter()
            try:
                value, code = optrap.mathieu_floquet.monodromy_stability(
                    point, **inputs["steps"]), 0
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                value, code = None, f"{type(exc).__name__}: {exc}"
            calls.append(Call("lib", perf_counter() - t0, code, item=point,
                              value=value))
            calibrate.ACTIVE.between_calls()
        for i, (path, cfg) in enumerate(inputs["drives"]):
            out = batch_dir / f"d{i}"
            calls.append(cli_call(["simulate", path, "--out-dir", str(out)],
                                  item=cfg, out_dir=out))
        return calls

    def check(self, inputs, call):
        if call.kind == "lib":
            if call.exit_code != 0:
                return "failed", str(call.exit_code)
            reason = oracles.check_floquet(call.value, *call.item)
            return ("failed", reason) if reason else ("ok", "")
        status, reason = cli_outcome(call, ["trajectory.csv"])
        if status != "ok":
            return status, reason
        reason = oracles.check_driven_csv(
            (call.out_dir / "trajectory.csv").read_text(), call.item)
        return ("failed", reason) if reason else ("ok", "")


class SecularSim(Workload):
    """One full-mode `trap simulate` call from a seeded transverse offset."""

    name = "secular-sim"

    def __init__(self, t_end_s, samples):
        self.t_end_s, self.samples = t_end_s, samples

    def generate(self, seed, work, smoke=False):
        rng = random.Random(seed)
        offset = rng.uniform(0.005, 0.015) * BASE_TRAP["laser"]["waist_um"] * 1e-6
        phi = rng.uniform(0.0, 2.0 * math.pi)
        cfg = dict(BASE_TRAP)
        cfg["simulate"] = {
            "mode": "full",
            "initial": {"position_m": [offset * math.cos(phi),
                                       offset * math.sin(phi), 0.0],
                        "velocity_m_s": [0.0, 0.0, 0.0]},
            "t_end_s": 5e-5 if smoke else self.t_end_s,
            "options": {"include_radiation_pressure": False,
                        "force_model": "low_sat",
                        "samples": 4097 if smoke else self.samples}}
        return {"cfg": cfg, "path": write_json(work / "secular.json", cfg),
                "direction": (math.cos(phi), math.sin(phi))}

    def warm_up(self, inputs, work):
        cfg = json.loads(json.dumps(inputs["cfg"]))
        cfg["simulate"]["t_end_s"] = 2e-6
        cfg["simulate"]["options"]["samples"] = 65
        cli_call(["simulate", write_json(work / "warm.json", cfg),
                  "--out-dir", str(work / "warm")])

    def run_batch(self, inputs, batch_dir):
        return [cli_call(["simulate", inputs["path"], "--out-dir", str(batch_dir)],
                         out_dir=batch_dir)]

    def check(self, inputs, call):
        status, reason = cli_outcome(call, ["trajectory.csv"])
        if status != "ok":
            return status, reason
        reason = oracles.check_secular_csv(
            (call.out_dir / "trajectory.csv").read_text(), inputs["cfg"],
            inputs["direction"])
        return ("failed", reason) if reason else ("ok", "")


def report_config(rng):
    """One schema-valid report config; about 1.4 % have an anticonfined x axis.

    Static curvatures are drawn per axis relative to that axis's optical
    trap frequency: zero half of the time, otherwise 10^U(-2, 0.2) times
    omega_axis^2 with a negative sign 30 % of the time.
    """
    cfg = {
        "ion": {"mass_u": rng.uniform(6.0, 200.0),
                "charge_e": float(rng.choice((0, 1, 2, 3)))},
        "transition": {"wavelength_nm": rng.uniform(200.0, 1100.0),
                       "linewidth_2pi_MHz": 10 ** rng.uniform(-1.0, 2.0)},
        "laser": {"waist_um": rng.uniform(2.0, 50.0),
                  "detuning_2pi_GHz": -10 ** rng.uniform(1.0, 4.0),
                  "depth_mK": 10 ** rng.uniform(-1.0, 2.0)},
        "environment": {"temperature_K": rng.uniform(0.0, 400.0)},
    }
    curv = []
    for w in oracles.optical_frequencies(cfg):
        if rng.random() < 0.5:
            curv.append(0.0)
            continue
        sign = -1.0 if rng.random() < 0.3 else 1.0
        curv.append(sign * 10 ** rng.uniform(-2.0, 0.2)
                    * (w / (2.0 * math.pi * 1e3)) ** 2)
    cfg["static"] = {"curvatures_2pi_kHz_squared": curv}
    return cfg


class ReportSweep(Workload):
    """1000 `trap report` calls on seeded schema-valid configs."""

    name = "report-sweep"

    def generate(self, seed, work, smoke=False):
        rng = random.Random(seed)
        configs = []
        for i in range(30 if smoke else 1000):
            cfg = report_config(rng)
            configs.append((write_json(work / "configs" / f"c{i}.json", cfg), cfg))
        return {"configs": configs}

    def warm_up(self, inputs, work):
        cli_call(["report", inputs["configs"][0][0], "--out-dir", str(work / "warm")])

    def run_batch(self, inputs, batch_dir):
        calls = []
        for i, (path, cfg) in enumerate(inputs["configs"]):
            out = batch_dir / f"c{i}"
            calls.append(cli_call(["report", path, "--out-dir", str(out)],
                                  item=cfg, out_dir=out))
        return calls

    def check(self, inputs, call):
        expect_refusal = 0 in oracles.anticonfined_axes(call.item)
        status, reason = cli_outcome(call, ["report.json", "report.txt"],
                                     refusal=3 if expect_refusal else None)
        if status == "refused":
            return status, "anticonfined x axis"
        if status != "ok":
            return status, reason
        if expect_refusal:
            return "failed", "anticonfined x axis accepted"
        report = json.loads((call.out_dir / "report.json").read_text())
        reason = oracles.check_report(report, call.item)
        if reason is None and not (call.out_dir / "report.txt").read_text().startswith(
                "optical dipole trap report"):
            reason = "report.txt lacks its title"
        return ("failed", reason) if reason else ("ok", "")


class Numerics(Workload):
    """One batch through every numerical layer: a `trap stability` scan,
    `monodromy_stability` at one stable point with three driven `trap
    simulate` calls, and one short full-mode `trap simulate`.

    Each part is generated, run and checked as its own workload; a call
    carries the name of the part that made it.
    """

    name = "numerics"

    def __init__(self):
        self.parts = (StabilityMap(n_a=26, n_q=21), Micromotion(points=1),
                      SecularSim(t_end_s=1.25e-4, samples=8193))

    def generate(self, seed, work, smoke=False):
        return {p.name: p.generate(seed, work / p.name, smoke=smoke) for p in self.parts}

    def warm_up(self, inputs, work):
        for p in self.parts:
            p.warm_up(inputs[p.name], work / p.name)

    def run_batch(self, inputs, batch_dir):
        calls = []
        for p in self.parts:
            for call in p.run_batch(inputs[p.name], batch_dir / p.name):
                call.owner = p.name
                calls.append(call)
        return calls

    def check(self, inputs, call):
        part = next((p for p in self.parts if p.name == call.owner), None)
        if part is None:
            return "failed", f"call of no part: {call.owner!r}"
        outcome = part.check(inputs[part.name], call)
        if "near_boundary_cells" in inputs[part.name]:
            inputs["near_boundary_cells"] = inputs[part.name]["near_boundary_cells"]
        return outcome


WORKLOADS = {w.name: w for w in (Numerics(), ReportSweep())}
# every part with its own generator and oracle, for the benchmark's tests
PARTS = {w.name: w for w in (*WORKLOADS["numerics"].parts, WORKLOADS["report-sweep"])}
