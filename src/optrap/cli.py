"""Batch command-line front end.

Three subcommands over a JSON configuration:

    trap report <config>      -> report.json, report.txt
    trap stability <config>   -> stability.csv   (grid from --a/--q or config)
    trap simulate <config>    -> trajectory.csv  (needs a simulate block)

Exit codes: 0 success, 2 configuration error, 3 physics/numerical error.
Each warning goes to stderr as one line, ``warning: <Category>: <message>``.
Outputs are deterministic: identical configs give byte-identical files
(no timestamps; floats rendered by fixed rules).  Files are written
atomically (temp + rename).  ``TRAP_FLOAT_DIGITS`` (default 9) sets the
significant digits of report.txt and of the dominant frequency that
``simulate`` prints; the CSVs are pinned (9 digits, 12 for the trajectory)
and JSON always keeps full precision.
"""

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

from .config import (block_range, check_scan, check_steps, load_config,
                     range_flag)
from .dynamics import (DrivenOscillatorSpec, dominant_frequency,
                       integrate_driven, integrate_full)
from .errors import ConfigError, PhysicsError
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


def run_stability(args) -> int:
    parsed = load_config(args.config)
    axes = []
    for name, flag in (("a", args.a), ("q", args.q)):
        if flag is not None:
            axes.append(range_flag(flag, name))
        elif parsed.scan:
            axes.append(block_range(parsed.scan, name))
        else:
            raise ConfigError(f"no --{name} range given and no scan block "
                              "in config")
    a_range, q_range = check_scan(axes)
    steps = (check_steps(args.steps, "--steps") if args.steps is not None
             else parsed.scan.get("monodromy_steps", DEFAULT_STEPS))

    grid = stability_scan(a_range[:2], q_range[:2], (a_range[2], q_range[2]),
                          steps=steps)
    out = _out_dir(args)
    _atomic_write(out / "stability.csv", grid.to_csv_text())
    print(f"wrote {out / 'stability.csv'} "
          f"({len(grid.a_values)}x{len(grid.q_values)} points)")
    return EXIT_OK


def run_simulate(args) -> int:
    digits = _text_digits()
    parsed = load_config(args.config)
    sim = parsed.simulate
    if not sim:
        raise ConfigError("config has no simulate block")
    if sim["mode"] == "full":
        # the option keys are integrate_full's keyword names, and its
        # defaults apply to every option the config leaves out
        record = integrate_full(parsed.setup, sim["initial"], sim["t_end_s"],
                                **sim["options"])
    else:
        options = sim["options"]
        omega0 = rad_s_from_2pi_hz(options["omega0_2pi_kHz"] * 1e3)
        x0, v0 = sim["initial"]
        spec = DrivenOscillatorSpec(
            omega0=omega0, drive_frequency=options["drive_ratio"] * omega0,
            charge=parsed.setup.ion.total_charge,
            field_amplitude=options["field_V_m"],
            mass=parsed.setup.ion.total_mass, x0=x0, v0=v0)
        kwargs = ({"t_end": sim["t_end_s"]} if "t_end_s" in sim
                  else {"drive_periods": options["drive_periods"]})
        if "steps_per_period" in options:
            kwargs["steps_per_period"] = options["steps_per_period"]
        record = integrate_driven(spec, **kwargs)
    # everything that can fail runs before the one write
    freq = dominant_frequency(record.times, record.positions[:, 0])
    out = _out_dir(args)
    _atomic_write(out / "trajectory.csv", record.to_csv_text())
    print(f"final_total_energy_J={format_sig(record.total_energy[-1], 12)} "
          f"dominant_frequency_rad_s={format_sig(freq, digits)} "
          f"samples={len(record.times)}")
    return EXIT_OK


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


def _print_warning(message, category, filename, lineno, file=None,
                   line=None):
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # one line per warning; restored on return, so library callers keep
    # Python's format and every caller keeps its filters
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (ConfigError, OSError) as exc:
            # OSError: an unreadable config or an unusable output directory
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except PhysicsError as exc:
            print(f"physics error: {exc}", file=sys.stderr)
            return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
