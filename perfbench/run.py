"""optrap benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run one workload (the last stdout line is the result JSON):

    python3 perfbench/run.py --workload report-sweep --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` the per-layer metrics, from a separate traced batch.  Each
run is recorded under ``.perfbench_results/`` (or ``--results-dir``).
Compare two sets of recorded runs:

    python3 perfbench/run.py --compare BASE_DIR NEW_DIR

Only the standard library is used here; the worker processes need
numpy and scipy, the package's own dependencies.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("numerics", "report-sweep")
SETUP_REPEATS = 2        # set-up-only processes before the measured one
TIME_LIMIT_S = 170.0     # a run ends within this, or fails


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def provenance():
    """Git SHA when there is a repository, and a hash of the package source."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "cores": os.cpu_count()}


def worker(args, work, deadline, *extra):
    """Run worker.py to completion; its JSON line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), *extra]
    if args.smoke:
        cmd.append("--smoke")
    cmd += ["--t-spawn", repr(time.time())]
    # one thread per worker: a BLAS pool would compete for the host's few cores
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run(args):
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "optrap" / "__init__.py").is_file():
        raise RuntimeError(f"no package source at {ROOT / 'src' / 'optrap'}")
    base = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for i in range(1 if args.smoke else SETUP_REPEATS):
                setups.append(worker(args, base / f"setup{i}", deadline,
                                     "--setup-only")["setup_s"])
        out = worker(args, base / "run", deadline)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        # the root filesystem may discard freed blocks at journal commit; let
        # that finish here rather than inside the next run's timed loop
        os.sync()
    detail = out["detail"]
    if not args.trace:
        setups.append(out["metrics"]["setup_s"]["value"])
        out["metrics"]["setup_s"]["value"] = statistics.median(setups)
        detail["setup_samples_s"] = setups

    declared = {m["name"]: m["unit"]
                for m in spec()["per_layer" if args.trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in out["metrics"].items()}
    detail["absent_metrics"] = sorted(set(declared) - set(emitted))
    if emitted.keys() - declared.keys() or any(
            declared[n] != u for n, u in emitted.items()):
        raise RuntimeError(f"metrics {emitted} do not match BENCHMARK.json {declared}")

    result = {"correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": out["metrics"]}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, smoke=args.smoke, detail=detail,
                  provenance=dict(provenance(), **out["versions"]))
    results = Path(args.results_dir) if args.results_dir else ROOT / ".perfbench_results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}_s{args.seed}_t{args.trace}_{time.time_ns()}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"detail": detail, "provenance": record["provenance"]}))
    print(json.dumps(result))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_records(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def compare(base_dir, new_dir):
    """Per workload and metric: medians and quartiles, the ratio new/base, pair wins."""
    better = {m["name"]: m["better"] for m in spec()["end_to_end"] + spec()["per_layer"]}
    sides = [load_records(base_dir), load_records(new_dir)]
    keys = sorted({(r["workload"], r["trace"], name) for records in sides
                   for r in records for name in r["metrics"]})
    print(f"{'workload':14} {'metric':42} {'base med [q1, q3] (n)':34} "
          f"{'new med [q1, q3] (n)':34} {'new/base':>9} {'wins':>9}")
    for workload, trace, name in keys:
        runs = [{r["seed"]: r["metrics"][name]["value"] for r in records
                 if r["workload"] == workload and r["trace"] == trace
                 and name in r["metrics"]} for records in sides]
        cells = []
        for by_seed in runs:
            values = list(by_seed.values())
            if values:
                q1, med, q3 = quartiles(values)
                cells.append((med, f"{med:.6g} [{q1:.6g}, {q3:.6g}] ({len(values)})"))
            else:
                cells.append((None, "absent"))
        (b_med, b_text), (n_med, n_text) = cells
        ratio = f"{n_med / b_med:.4f}" if b_med and n_med is not None else "-"
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        pairs = [sign * (runs[1][s] - runs[0][s]) for s in runs[0].keys() & runs[1].keys()]
        wins = f"{sum(d > 0 for d in pairs)}/{len(pairs)}"
        print(f"{workload:14} {name:42} {b_text:34} {n_text:34} {ratio:>9} {wins:>9}")
    print("new/base: ratio of medians, base = the first set; wins: seed-paired runs "
          "where the new set is better, ties counted for neither")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    try:
        run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
