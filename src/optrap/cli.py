"""Batch command-line front end.

Three subcommands over a JSON configuration:

    trap report <config>      -> report.json, report.txt
    trap stability <config>   -> stability.csv   (grid from --a/--q or config)
    trap simulate <config>    -> trajectory.csv  (needs a simulate block)

Exit codes: 0 success, 2 configuration error, 3 physics/numerical error.
Outputs are deterministic: identical configs give byte-identical files
(no timestamps; floats rendered by fixed rules).  Files are written
atomically (temp + rename).  ``TRAP_FLOAT_DIGITS`` (default 9) controls
text/CSV significant digits; JSON always keeps full precision.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from .config import ParsedConfig, check_steps, load_config
from .dynamics import (DrivenOscillatorSpec, dominant_frequency,
                       integrate_driven, integrate_full)
from .errors import ConfigError, PhysicsError, TrapError
from .mathieu_floquet import DEFAULT_STEPS, stability_scan
from .reporting import build_report, render_text
from .units import format_sig, rad_s_from_2pi_hz

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3


def _text_digits() -> int:
    raw = os.environ.get("TRAP_FLOAT_DIGITS", "9")
    try:
        digits = int(raw)
    except ValueError as exc:
        raise ConfigError(f"TRAP_FLOAT_DIGITS must be an integer: {raw!r}") from exc
    if not 1 <= digits <= 17:
        raise ConfigError("TRAP_FLOAT_DIGITS must be between 1 and 17")
    return digits


def _atomic_write(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_report(args) -> int:
    digits = _text_digits()
    parsed = load_config(args.config)
    report = build_report(parsed)
    out = _out_dir(args)
    _atomic_write(out / "report.json",
                  json.dumps(report, indent=2, sort_keys=True) + "\n")
    _atomic_write(out / "report.txt", render_text(report, digits))
    print(f"wrote {out / 'report.json'} and {out / 'report.txt'}")
    return EXIT_OK


def _parse_range(text: str, name: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--{name} must be min:max:step")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--{name} must contain numbers: {text!r}") from exc
    return lo, hi, step


def run_stability(args) -> int:
    parsed = load_config(args.config)
    scan_cfg = parsed.scan
    if args.a is not None:
        a_min, a_max, a_step = _parse_range(args.a, "a")
    elif scan_cfg:
        a_min, a_max, a_step = (scan_cfg["a_min"], scan_cfg["a_max"],
                                scan_cfg["a_step"])
    else:
        raise ConfigError("no --a range given and no scan block in config")
    if args.q is not None:
        q_min, q_max, q_step = _parse_range(args.q, "q")
    elif scan_cfg:
        q_min, q_max, q_step = (scan_cfg["q_min"], scan_cfg["q_max"],
                                scan_cfg["q_step"])
    else:
        raise ConfigError("no --q range given and no scan block in config")
    if args.steps is not None:
        steps = check_steps(args.steps, "--steps")
    else:
        steps = scan_cfg.get("monodromy_steps", DEFAULT_STEPS)
    for name, (lo, hi, step) in (("a", (a_min, a_max, a_step)),
                                 ("q", (q_min, q_max, q_step))):
        if step <= 0 or hi < lo:
            raise ConfigError(f"bad {name} range: need min <= max and "
                              "step > 0")

    grid = stability_scan((a_min, a_max), (q_min, q_max), (a_step, q_step),
                          steps=steps)
    out = _out_dir(args)
    # the CSV interface is pinned at 9 significant digits; the env var
    # applies to the human-readable report only
    _atomic_write(out / "stability.csv", grid.to_csv_text(digits=9))
    print(f"wrote {out / 'stability.csv'} "
          f"({len(grid.a_values)}x{len(grid.q_values)} points)")
    return EXIT_OK


def run_simulate(args) -> int:
    digits = _text_digits()
    parsed = load_config(args.config)
    sim = parsed.simulate
    if not sim:
        raise ConfigError("config has no simulate block")
    record = (_simulate_full(parsed, sim) if sim["mode"] == "full"
              else _simulate_driven(parsed, sim))
    # everything that can fail runs before the one write
    freq = dominant_frequency(record.times, record.positions[:, 0])
    out = _out_dir(args)
    _atomic_write(out / "trajectory.csv", record.to_csv_text())
    print(f"final_total_energy_J={format_sig(record.total_energy[-1], 12)} "
          f"dominant_frequency_rad_s={format_sig(freq, digits)} "
          f"samples={len(record.times)}")
    return EXIT_OK


def _simulate_full(parsed: ParsedConfig, sim: dict):
    initial = sim.get("initial", {})
    position = tuple(initial.get("position_m", (0.0, 0.0, 0.0)))
    velocity = tuple(initial.get("velocity_m_s", (0.0, 0.0, 0.0)))
    options = sim.get("options", {})
    return integrate_full(
        parsed.setup, (position, velocity), sim["t_end_s"],
        include_radiation_pressure=options.get("include_radiation_pressure",
                                               True),
        force_model=options.get("force_model", "exact_log"),
        rtol=options.get("rtol", 1e-10), atol=options.get("atol", 1e-16),
        samples=int(options.get("samples", 4097)),
        method=options.get("method", "RK45"))


def _simulate_driven(parsed: ParsedConfig, sim: dict):
    options = sim.get("options", {})
    initial = sim.get("initial", {})
    omega0 = rad_s_from_2pi_hz(options["omega0_2pi_kHz"] * 1e3)
    spec = DrivenOscillatorSpec(
        omega0=omega0,
        drive_frequency=options["drive_ratio"] * omega0,
        charge=parsed.setup.ion.total_charge,
        field_amplitude=options["field_V_m"],
        mass=parsed.setup.ion.total_mass,
        x0=float(initial.get("position_m", 0.0)),
        v0=float(initial.get("velocity_m_s", 0.0)))
    kwargs = {"steps_per_period": int(options.get("steps_per_period", 64))}
    if "t_end_s" in sim:
        kwargs["t_end"] = sim["t_end_s"]
    else:
        kwargs["drive_periods"] = int(options["drive_periods"])
    return integrate_driven(spec, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trap",
        description="single-ion optical dipole trap analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="frequency hierarchy, correction "
                         "ledger, blackbody and micromotion summary")
    rep.add_argument("config")
    rep.add_argument("--out-dir", default=".")
    rep.set_defaults(func=run_report)

    stab = sub.add_parser("stability", help="Mathieu stability map CSV")
    stab.add_argument("config")
    stab.add_argument("--a", help="a range as min:max:step")
    stab.add_argument("--q", help="q range as min:max:step")
    stab.add_argument("--steps", type=int, default=None,
                      help="monodromy integration steps per period")
    stab.add_argument("--out-dir", default=".")
    stab.set_defaults(func=run_stability)

    simu = sub.add_parser("simulate", help="trajectory CSV from the config's "
                          "simulate block")
    simu.add_argument("config")
    simu.add_argument("--out-dir", default=".")
    simu.set_defaults(func=run_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except TrapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
