"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They need the package source under ``src`` and take about a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from workloads import PARTS, WORKLOADS, cli_call  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def to_csv(header, rows):
    return "\n".join([",".join(header)] + [",".join(repr(float(v)) for v in row)
                                           for row in rows]) + "\n"


def input_files(work):
    return {p.relative_to(work).as_posix(): p.read_text()
            for p in sorted(work.rglob("*.json"))}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(name, tmp_path):
    wl = WORKLOADS[name]
    seen = []
    for i, seed in enumerate((1, 1, 2)):
        work = tmp_path / str(i)
        inputs = wl.generate(seed, work)
        seen.append((input_files(work), repr(inputs).replace(str(work), "")))
    same = seen[0] == seen[1]
    assert same, "the same seed gave different inputs"
    assert seen[0] != seen[2], "two seeds gave the same inputs"


def test_declared_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric(name, tmp_path):
    metric_sets = []
    for seed in (1, 2):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench("--workload", name, "--seed", str(seed), "--seconds", "0.5",
                             "--trace", str(trace), "--smoke",
                             "--results-dir", str(tmp_path / "results"))
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in SPEC[kind]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
            metric_sets.append(sorted(result["metrics"]))
    assert metric_sets[:2] == metric_sets[2:]
    proc = run_bench("--compare", str(tmp_path / "results"), str(tmp_path / "results"))
    assert proc.returncode == 0 and "wall_s" in proc.stdout and "new/base" in proc.stdout


def test_traced_counts(tmp_path):
    proc = run_bench("--workload", "report-sweep", "--seed", "4", "--seconds", "0.5",
                     "--trace", "1", "--smoke", "--results-dir", str(tmp_path))
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["reporting.trap_summary_calls"]["value"] == 9
    assert metrics["mathieu_floquet.monodromy_calls_per_point"]["value"] == 2


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "report-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibration_scales_user_and_system_time_apart(tmp_path):
    wall, cpu = calibrate.normalise(10.0, 6.0, 2.0, 2.0, 4.0)
    assert (wall, cpu) == (5.5, 3.5)     # 6/2 + 2/4, plus 2 s off the CPU
    cal = calibrate.Calibrator()
    cal.directory = tmp_path
    cpu_factor, fs_factor = cal.measure(0.05)
    assert cpu_factor > 0.0 and fs_factor > 0.0
    assert sorted(p.name for p in (tmp_path / "b0").iterdir()) == ["f0", "f1"]
    spent, before = cal.spent[0], cal.usage_without_blocks()
    cal.block()
    block_s = cal.spent[0] - spent
    assert cal.usage_without_blocks()[0] - before[0] < 0.5 * block_s


# ---------------------------------------------------------------------------
# every oracle accepts the program's output and rejects a corrupted one
# ---------------------------------------------------------------------------

def test_stability_oracle_rejects_a_flipped_cell(tmp_path):
    wl = PARTS["stability-map"]
    inputs = wl.generate(3, tmp_path, smoke=True)
    call = wl.run_batch(inputs, tmp_path / "out")[0]
    assert wl.check(inputs, call) == ("ok", "")
    text = (tmp_path / "out" / "stability.csv").read_text()
    assert oracles.check_stability_csv(text, inputs["a"], inputs["q"])[0] is None
    lines = text.split("\n")
    cells = lines[7].split(",")
    cells[2] = "0" if cells[2] == "1" else "1"
    lines[7] = ",".join(cells)
    reason, _ = oracles.check_stability_csv("\n".join(lines), inputs["a"], inputs["q"])
    assert "disagree" in reason


def confined_report_config(seed):
    cfg = workloads.report_config(workloads.random.Random(seed))
    cfg["static"] = {"curvatures_2pi_kHz_squared": [0.0, 0.0, 0.0]}
    return cfg


def test_report_oracle_rejects_a_perturbed_depth(tmp_path):
    cfg = confined_report_config(5)
    path = workloads.write_json(tmp_path / "c.json", cfg)
    call = cli_call(["report", path, "--out-dir", str(tmp_path / "out")], cfg,
                    tmp_path / "out")
    assert PARTS["report-sweep"].check({}, call) == ("ok", "")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    report["trap"]["depth_mK"] *= 1.0 + 1e-6
    assert "depth_mK" in oracles.check_report(report, cfg)


def test_refused_report_leaves_no_files(tmp_path):
    cfg = confined_report_config(6)
    w_x = oracles.optical_frequencies(cfg)[0]
    cfg["static"]["curvatures_2pi_kHz_squared"][0] = -2.0 * (w_x / (2e3 * math.pi)) ** 2
    path = workloads.write_json(tmp_path / "c.json", cfg)
    call = cli_call(["report", path, "--out-dir", str(tmp_path / "out")], cfg,
                    tmp_path / "out")
    assert call.exit_code == 3
    assert PARTS["report-sweep"].check({}, call) == ("refused", "anticonfined x axis")
    call.exit_code = 2      # the predicted refusal is exit 3 only
    assert PARTS["report-sweep"].check({}, call)[0] == "failed"
    call.exit_code = 3
    (tmp_path / "out").mkdir(exist_ok=True)
    (tmp_path / "out" / "report.json").write_text("{}")
    assert PARTS["report-sweep"].check({}, call)[0] == "failed"


@pytest.mark.parametrize("name", sorted(PARTS))
@pytest.mark.parametrize("code", [2, 3])
def test_unpredicted_refusal_fails(name, code, tmp_path):
    call = workloads.Call("cli", 0.01, code, tmp_path / "out",
                          item=confined_report_config(9))
    assert PARTS[name].check({}, call)[0] == "failed"
    call.owner = name
    if name in {part.name for part in WORKLOADS["numerics"].parts}:
        assert WORKLOADS["numerics"].check({name: {}}, call)[0] == "failed"


def test_numerics_rejects_a_call_of_no_part(tmp_path):
    call = workloads.Call("cli", 0.01, 0, tmp_path / "out")
    assert WORKLOADS["numerics"].check({}, call)[0] == "failed"


def test_secular_oracle_rejects_a_shifted_frequency(tmp_path):
    wl = PARTS["secular-sim"]
    inputs = wl.generate(7, tmp_path, smoke=True)
    call = wl.run_batch(inputs, tmp_path / "out")[0]
    assert wl.check(inputs, call) == ("ok", "")
    header, rows = oracles.parse_csv((tmp_path / "out" / "trajectory.csv").read_text())
    rows[:, 0] *= 1.01
    text = to_csv(header, rows)
    assert "FFT frequency" in oracles.check_secular_csv(text, inputs["cfg"],
                                                        inputs["direction"])


def test_driven_oracle_rejects_a_wrong_amplitude(tmp_path):
    wl = PARTS["micromotion"]
    inputs = wl.generate(8, tmp_path, smoke=True)
    calls = wl.run_batch(inputs, tmp_path / "out")
    assert [wl.check(inputs, c) for c in calls] == [("ok", "")] * len(calls)
    cfg = inputs["drives"][1][1]
    header, rows = oracles.parse_csv((calls[2].out_dir / "trajectory.csv").read_text())
    opts = cfg["simulate"]["options"]
    w_d = opts["drive_ratio"] * 2.0 * math.pi * opts["omega0_2pi_kHz"] * 1e3
    x_ref, _ = oracles.driven_closed_form(cfg, rows[:, 0])
    amp = np.max(np.abs(x_ref))
    rows[:, 1] -= 0.01 * amp * np.cos(w_d * rows[:, 0])
    text = to_csv(header, rows)
    assert "closed form" in oracles.check_driven_csv(text, cfg)


def test_floquet_oracle_rejects_a_wrong_ratio_or_determinant(tmp_path):
    from optrap.mathieu_floquet import monodromy_stability
    a, q = 0.06, -0.03
    result = monodromy_stability((a, q), steps=1024)
    assert oracles.check_floquet(result, a, q) is None
    wrong_ratio = type(result)(**dict(vars(result), micromotion_ratio=1.001
                                      * result.micromotion_ratio))
    assert "DOP853" in oracles.check_floquet(wrong_ratio, a, q)
    mono = result.monodromy_matrix * (1.0 + 1e-6)
    wrong_det = type(result)(**dict(vars(result), monodromy_matrix=mono))
    assert "det" in oracles.check_floquet(wrong_det, a, q)
