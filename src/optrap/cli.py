"""Batch command-line front end.

Three subcommands over a JSON configuration:

    trap report <config>      -> report.json, report.txt
    trap stability <config>   -> stability.csv   (grid from --a/--q or config)
    trap simulate <config>    -> trajectory.csv  (needs a simulate block)

Exit codes: 0 success, 2 configuration error, 3 physics/numerical error.
A refused command prints only its error line; a successful one then
prints each warning to stderr as one line, ``warning: <Category>: <message>``.
Outputs are deterministic: identical configs give byte-identical files
(no timestamps; floats rendered by fixed rules).  A command writes all
its files (temp + rename) or none.  ``TRAP_FLOAT_DIGITS`` (default 9)
sets the significant digits of report.txt and of the dominant frequency
that ``simulate`` prints; the CSVs are pinned (9 digits, 12 for the
trajectory) and JSON always keeps full precision.
"""

import argparse
import functools
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import check_full_span, load_config, scan_request
from .dynamics import (DrivenOscillatorSpec, dominant_frequency,
                       integrate_driven, integrate_full)
from .errors import ConfigError, FrequencyRangeWarning, PhysicsError
from .mathieu_floquet import MAX_HALF_STEPS, stability_scan
from .reporting import build_report, render_text
from .units import format_sig

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


def _write_outputs(out_dir: str, files: dict) -> Path:
    """Write ``files`` (name -> a text, or an iterable of text pieces
    written in order) into ``out_dir`` whole or not at all: no output path
    may be a directory, every temp file is written before any is renamed,
    and an exception in a write, a rename or a piece leaves no temp file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in files:
        if (out / name).is_dir():
            raise ConfigError(f"output path {out / name} is a directory")
    tmps = []
    try:
        for name, text in files.items():
            tmps.append(out / (name + ".tmp"))
            if isinstance(text, str):
                tmps[-1].write_text(text, encoding="utf-8")
            else:
                with tmps[-1].open("w", encoding="utf-8") as stream:
                    stream.writelines(text)
        for name, tmp in zip(files, tmps):
            os.replace(tmp, out / name)
    except BaseException:
        for tmp in tmps:
            if tmp.is_file():
                tmp.unlink()
        raise
    return out


def run_report(args) -> int:
    digits = _text_digits()
    parsed = load_config(args.config)
    report = build_report(parsed)
    out = _write_outputs(args.out_dir, {
        "report.json": json.dumps(report, indent=2, sort_keys=True) + "\n",
        "report.txt": render_text(report, digits)})
    print(f"wrote {out / 'report.json'} and {out / 'report.txt'}")
    return EXIT_OK


def run_stability(args) -> int:
    parsed = load_config(args.config)
    a_range, q_range, steps = scan_request(parsed.scan, args.a, args.q,
                                           args.steps)

    grid = stability_scan(a_range[:2], q_range[:2], (a_range[2], q_range[2]),
                          steps=steps)
    out = _write_outputs(args.out_dir, {"stability.csv": grid.to_csv_text()})
    print(f"wrote {out / 'stability.csv'} "
          f"({len(grid.a_values)}x{len(grid.q_values)} points)")
    return EXIT_OK


def run_simulate(args) -> int:
    digits = _text_digits()
    parsed = load_config(args.config)
    sim = parsed.simulate
    if not sim:
        raise ConfigError("config has no simulate block")
    aliased = False
    if sim["mode"] == "full":
        aliased = check_full_span(parsed.setup, sim["t_end_s"],
                                  sim["options"]["samples"])
        # the option keys are integrate_full's keyword names, and its
        # defaults apply to every option the config leaves out
        record = integrate_full(parsed.setup, sim["initial"], sim["t_end_s"],
                                **sim["options"])
    else:
        record = integrate_driven(DrivenOscillatorSpec(**sim["spec"]),
                                  **sim["run"])
    # every check that can refuse the run comes before the write
    if not all(np.isfinite(series).all() for series in (
            record.positions, record.velocities, record.total_energy)):
        raise PhysicsError("the trajectory leaves the float range")
    x = record.positions[:, 0]
    freq = dominant_frequency(record.times, x)
    if x.min() == x.max():
        warnings.warn("x(t) does not move: the dominant frequency of the x "
                      "component is nan", FrequencyRangeWarning)
    elif np.isnan(freq) and not aliased:
        warnings.warn("x(t) spans fewer than two cycles: the dominant "
                      "frequency of the x component is nan",
                      FrequencyRangeWarning)
    out = _write_outputs(args.out_dir, {"trajectory.csv": record.csv_pieces()})
    print(f"final_total_energy_J={format_sig(record.total_energy[-1], 12)} "
          f"dominant_frequency_rad_s={format_sig(freq, digits)} "
          f"samples={len(record.times)}")
    return EXIT_OK


# built once per process, so each subcommand's func is bound on the first call
@functools.cache
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
                      help=f"RK8 monodromy steps over the half period, 1 to "
                      f"{MAX_HALF_STEPS}, used verbatim (default: set by the "
                      "largest |a| + 2|q|)")
    stab.add_argument("--out-dir", default=".")
    stab.set_defaults(func=run_stability)

    simu = sub.add_parser("simulate", help="trajectory CSV from the config's "
                          "simulate block")
    simu.add_argument("config")
    simu.add_argument("--out-dir", default=".")
    simu.set_defaults(func=run_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # warnings are held until the command ends and printed one line each,
    # only on success; the caller's filters and warning functions stay
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = args.func(args)
        except (ConfigError, OSError) as exc:
            # OSError: an unreadable config or an unusable output directory
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except PhysicsError as exc:
            print(f"physics error: {exc}", file=sys.stderr)
            return EXIT_PHYSICS
    for warning in caught:
        print(f"warning: {warning.category.__name__}: {warning.message}",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
