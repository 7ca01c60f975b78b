"""JSON configuration: parsing, strict validation, unit conversion.

A configuration names the trap in the units the literature quotes (nm,
um, mW or mK, 2pi x Hz multiples, K); this module converts to SI exactly
once, at the boundary.  Unknown keys are rejected by dotted path so typos
cannot silently disable anything.  The beam may be specified by optical
power (``power_mW``) or by target trap depth (``depth_mK``); the latter
is inverted through the exact linearity of the weak-drive depth in power.
"""

import json
import math
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from .constants import CONST
from .errors import ConfigError, FrequencyRangeWarning
from .model import IonSpecies, LaserBeam, TrapSetup
from .dipole_trap import check_force_model, power_for_depth, secular_curvatures
from .dynamics import (DEFAULT_SAMPLES, MIN_ATOL, MIN_RTOL,
                       MIN_STEPS_PER_PERIOD, driven_steps)
from .mathieu_floquet import MAX_HALF_STEPS, grid_count
from .units import TWO_PI


_SIM_FULL_OPTION_KEYS = {"include_radiation_pressure", "force_model", "rtol",
                         "atol", "samples"}
_SIM_DRIVEN_OPTION_KEYS = {"omega0_2pi_kHz", "drive_ratio", "field_V_m",
                           "steps_per_period", "drive_periods"}
# most (a, q) cells one stability scan may have: the batched scan peaks at
# about 0.5 kB per cell (tracemalloc, 2,500 to 40,000 cells), so ~0.5 GB
MAX_SCAN_CELLS = 1_000_000
# most rows one trajectory may have: a full or driven `trap simulate` peaks
# at 0.12-0.16 kB per row (tracemalloc, 10,000 to 41,000 rows; the CSV is
# streamed to its file), so ~0.16 GB
MAX_TRAJECTORY_ROWS = 1_000_000
# longest full-mode span, in periods of the fastest real secular frequency:
# DOP853 spends ~260 force evaluations per period, so mg24 over 10**4
# radial periods takes ~75 s (2-vCPU VM)
MAX_FULL_PERIODS = 10_000


@dataclass(frozen=True)
class ParsedConfig:
    """A validated configuration converted to SI."""

    setup: TrapSetup
    blackbody_prefactor: float
    # {} when absent; a full block with "initial" a (pos, vel) pair; a
    # driven block is "mode", "spec" (the SI DrivenOscillatorSpec fields)
    # and "run" (integrate_driven's keyword arguments)
    simulate: dict
    scan: dict                     # {} when absent
    raw: dict                      # the config exactly as read (echoed in reports)


def _section(cfg: dict, name: str, keys, required=False, path="") -> dict:
    """The object ``cfg[name]`` ({} when absent), every key in ``keys``."""
    if name not in cfg:
        if required:
            raise ConfigError(f"missing section: {name}")
        return {}
    if not isinstance(cfg[name], dict):
        raise ConfigError(f"section {path}{name} must be an object")
    _check_keys(cfg[name], keys, path + name)
    return cfg[name]


@contextmanager
def _model_checks(*keys):
    """The model's checks on the values of ``keys`` (a ValueError, or the
    OverflowError of a float ``**`` past its range) become ConfigErrors."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{' / '.join(keys)}: {exc}") from exc
    except OverflowError as exc:
        raise ConfigError(f"{' / '.join(keys)}: a derived quantity "
                          "overflows the float range") from exc


def _check_keys(section: dict, allowed, path: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key: {path}.{key}")


def _number(section: dict, key: str, path: str, *, required=True, default=None,
            minimum=None, strict_min=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing key: {path}.{key}")
        return default
    value = _finite(section[key], f"{path}.{key}")
    if minimum is not None:
        if strict_min and not value > minimum:
            raise ConfigError(f"{path}.{key} must be > {minimum}")
        if not strict_min and not value >= minimum:
            raise ConfigError(f"{path}.{key} must be >= {minimum}")
    return value


def _finite(value, name: str) -> float:
    """A JSON number (not a bool) within the float range, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    if not abs(value) <= sys.float_info.max:   # nan, inf, a huge integer
        raise ConfigError(f"{name} must be finite")
    return float(value)


def _vector3(section: dict, key: str, path: str) -> tuple:
    values = section.get(key, [0.0, 0.0, 0.0])
    if not isinstance(values, list) or len(values) != 3:
        raise ConfigError(f"{path}.{key} must be a list of 3 finite numbers")
    return tuple(_finite(v, f"{path}.{key}") for v in values)


def _integer(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, "
                          f"got {value!r}")
    return value


def scan_request(block: dict, a: str = None, q: str = None,
                 steps: int = None) -> tuple:
    """(a range, q range, step count) of one stability scan, from the
    ``--a``/``--q``/``--steps`` values where given, else the scan block.
    Each (min, max, step) obeys :func:`~optrap.mathieu_floquet.grid_count`,
    the grid has at most ``MAX_SCAN_CELLS`` cells, and a step count is an
    integer from 1 to ``MAX_HALF_STEPS`` (None: the scan's default).
    ``block`` is a checked scan section (:attr:`ParsedConfig.scan`)."""
    axes, cells = [], 1
    for axis, flag in (("a", a), ("q", q)):
        if flag is not None:
            name, values = f"--{axis}", flag.split(":")
            if len(values) != 3:
                raise ConfigError(f"{name} must be min:max:step")
        elif block:
            keys = [f"{axis}_{end}" for end in ("min", "max", "step")]
            name = "scan." + "/".join(keys)
            values = [_number(block, key, "scan") for key in keys]
        else:
            raise ConfigError(f"no --{axis} range given and no scan block "
                              "in config")
        with _model_checks(name):
            values = tuple(float(v) for v in values)
            cells *= grid_count(*values)
        axes.append((name, values))
    if cells > MAX_SCAN_CELLS:
        raise ConfigError(f"{' x '.join(name for name, _ in axes)} grid has "
                          f"{cells:.3g} cells, more than {MAX_SCAN_CELLS}")
    name = "--steps" if steps is not None else "scan.monodromy_steps"
    steps = block.get("monodromy_steps") if steps is None else steps
    if steps is not None and _integer(steps, name, 1) > MAX_HALF_STEPS:
        raise ConfigError(f"{name} must be <= {MAX_HALF_STEPS}, got {steps}")
    return axes[0][1], axes[1][1], steps


def load_config(path) -> ParsedConfig:
    """Read and validate a JSON configuration file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer of too many digits, or deep nesting
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ParsedConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    _check_keys(raw, {"ion", "transition", "laser", "static", "environment",
                      "blackbody", "simulate", "scan"}, "config")

    ion_cfg = _section(raw, "ion", {"mass_u", "charge_e"}, required=True)
    mass_u = _number(ion_cfg, "mass_u", "ion")
    charge_e = _number(ion_cfg, "charge_e", "ion")
    with _model_checks("ion.mass_u", "ion.charge_e"):
        ion = IonSpecies.from_amu(mass_u, charge_e)

    tr_cfg = _section(raw, "transition", {"wavelength_nm",
                                          "linewidth_2pi_MHz"}, required=True)
    wavelength = _number(tr_cfg, "wavelength_nm", "transition") * 1e-9
    linewidth = TWO_PI * _number(
        tr_cfg, "linewidth_2pi_MHz", "transition") * 1e6

    laser_cfg = _section(raw, "laser", {"waist_um", "detuning_2pi_GHz",
                                        "power_mW", "depth_mK"}, required=True)
    waist = _number(laser_cfg, "waist_um", "laser") * 1e-6
    detuning = TWO_PI * _number(laser_cfg, "detuning_2pi_GHz", "laser") * 1e9
    has_power = "power_mW" in laser_cfg
    has_depth = "depth_mK" in laser_cfg
    if has_power == has_depth:
        raise ConfigError("laser needs exactly one of power_mW, depth_mK")

    static_cfg = _section(raw, "static", {"curvatures_2pi_kHz_squared"})
    curvatures = tuple(v * (TWO_PI * 1e3) ** 2 for v in _vector3(
        static_cfg, "curvatures_2pi_kHz_squared", "static"))

    env_cfg = _section(raw, "environment", {"temperature_K"})
    temperature = _number(env_cfg, "temperature_K", "environment",
                          required=False, default=300.0, minimum=0.0)

    bb_cfg = _section(raw, "blackbody", {"prefactor_multiplier"})
    prefactor = _number(bb_cfg, "prefactor_multiplier", "blackbody",
                        required=False, default=1.0, minimum=0.0,
                        strict_min=True)

    simulate = _section(raw, "simulate",
                        {"mode", "initial", "t_end_s", "options"})
    if simulate:
        simulate = _validate_simulate(simulate, ion)

    scan = _section(raw, "scan", {"a_min", "a_max", "a_step", "q_min",
                                  "q_max", "q_step", "monodromy_steps"})
    if scan:
        scan_request(scan)

    key = "power_mW" if has_power else "depth_mK"
    literal = _number(laser_cfg, key, "laser", minimum=0.0, strict_min=True)
    with _model_checks("transition.wavelength_nm", "laser.waist_um"):
        unit_beam = LaserBeam(wavelength=wavelength, waist_radius=waist,
                              detuning=detuning, power=1.0)
    with _model_checks("transition.wavelength_nm",
                       "transition.linewidth_2pi_MHz", "laser.detuning_2pi_GHz",
                       "static.curvatures_2pi_kHz_squared"):
        unit_setup = TrapSetup(ion, unit_beam, linewidth,
                               static_curvatures=curvatures,
                               temperature=temperature)
    if has_power:
        power = literal * 1e-3
    elif detuning >= 0:
        raise ConfigError("depth_mK requires red detuning "
                          "(negative detuning_2pi_GHz)")
    else:
        with _model_checks("transition.linewidth_2pi_MHz", "laser.waist_um",
                           "laser.detuning_2pi_GHz", "laser.depth_mK"):
            power = power_for_depth(unit_setup, CONST.kB * literal * 1e-3)
    with _model_checks(f"laser.{key}"):
        setup = replace(unit_setup, beam=replace(unit_beam, power=power))
    return ParsedConfig(setup=setup, blackbody_prefactor=prefactor,
                        simulate=simulate, scan=scan, raw=raw)


def _validate_simulate(sim: dict, ion: IonSpecies) -> dict:
    """Check a simulate block: a full one gets "samples" in "options" and a
    (pos, vel) "initial"; a driven one becomes "mode", "spec" and "run"."""
    mode = sim.get("mode")
    if mode not in ("full", "driven"):
        raise ConfigError("simulate.mode must be 'full' or 'driven'")
    options = _section(sim, "options", _SIM_FULL_OPTION_KEYS if mode == "full"
                       else _SIM_DRIVEN_OPTION_KEYS, path="simulate.")
    keys = ("position_m", "velocity_m_s")
    initial = _section(sim, "initial", keys, path="simulate.")
    path = "simulate.options"
    if mode == "full":
        initial = tuple(_vector3(initial, key, "simulate.initial")
                        for key in keys)
        _check_speed(math.hypot(*initial[1]))
        t_end = _number(sim, "t_end_s", "simulate", minimum=0.0,
                        strict_min=True)
        if "force_model" in options:
            with _model_checks(f"{path}.force_model"):
                check_force_model(options["force_model"])
        _number(options, "rtol", path, required=False, minimum=MIN_RTOL)
        _number(options, "atol", path, required=False, minimum=MIN_ATOL)
        options = {"samples": DEFAULT_SAMPLES, **options}
        samples = _integer(options["samples"], f"{path}.samples", 2)
        _check_rows(samples, f"{path}.samples")
        # a normal spacing makes the sample times strictly increasing
        if t_end / (samples - 1) < sys.float_info.min:
            raise ConfigError(f"simulate.t_end_s / {path}.samples: sample "
                              f"spacing below {sys.float_info.min:g} s")
        if not isinstance(options.get("include_radiation_pressure", True),
                          bool):
            raise ConfigError(f"{path}.include_radiation_pressure must be "
                              "true or false")
    else:
        # 1-D driven motion: scalar initial conditions
        initial = tuple(_number(initial, key, "simulate.initial",
                                required=False, default=0.0) for key in keys)
        _check_speed(abs(initial[1]))
        khz = _number(options, "omega0_2pi_kHz", path, minimum=0.0,
                      strict_min=True)
        ratio = _number(options, "drive_ratio", path, minimum=0.0,
                        strict_min=True)
        field = _number(options, "field_V_m", path, minimum=0.0)
        run = {}   # integrate_driven's keyword arguments
        if "steps_per_period" in options:
            run["steps_per_period"] = _integer(
                options["steps_per_period"], f"{path}.steps_per_period",
                MIN_STEPS_PER_PERIOD)
        durations = []
        if "drive_periods" in options:
            run["drive_periods"] = _integer(options["drive_periods"],
                                            f"{path}.drive_periods", 1)
            durations.append(f"{path}.drive_periods")
        if "t_end_s" in sim:
            run["t_end"] = _number(sim, "t_end_s", "simulate", minimum=0.0,
                                   strict_min=True)
            durations.append("simulate.t_end_s")
        if len(durations) != 1:
            raise ConfigError("driven simulate needs exactly one of "
                              "simulate.t_end_s, "
                              "simulate.options.drive_periods")
        omega0 = TWO_PI * (khz * 1e3)
        drive = ratio * omega0
        fast = max(omega0, drive)
        # the integrator squares both frequencies
        if not math.isfinite(fast * fast):
            raise ConfigError(f"{path}.omega0_2pi_kHz / {path}.drive_ratio: "
                              "the squared secular or drive frequency "
                              "overflows the float range")
        try:
            steps = driven_steps(omega0, drive, **run)[1]
        except (OverflowError, ZeroDivisionError):   # past the float range
            steps = math.inf
        _check_rows(steps + 1, " / ".join(durations + [
            f"{path}.steps_per_period", f"{path}.omega0_2pi_kHz",
            f"{path}.drive_ratio"]))
        return {"mode": mode, "run": run,
                "spec": {"omega0": omega0, "drive_frequency": drive,
                         "charge": ion.total_charge, "mass": ion.total_mass,
                         "field_amplitude": field, "x0": initial[0],
                         "v0": initial[1]}}
    return {**sim, "options": options, "initial": initial}


def check_full_span(setup: TrapSetup, t_end: float,
                    samples: int = DEFAULT_SAMPLES):
    """Refuse a full-mode span past ``MAX_FULL_PERIODS`` periods of the
    fastest real secular frequency omega; warn if ``samples`` alias it (are
    pi/omega or more apart) and return whether it warned.  Without one (an
    unconfined ion escapes) or past the float range, the run's physics
    checks decide.  Only `trap simulate` runs it: a report on the same
    trap stays valid."""
    omega_sq = max(secular_curvatures(setup))
    if 0.0 < omega_sq < math.inf:
        omega = math.sqrt(omega_sq)
        periods = t_end * omega / (2.0 * math.pi)
        if periods > MAX_FULL_PERIODS:
            raise ConfigError(
                f"simulate.t_end_s: {t_end:g} s is {periods:.3g} periods of "
                f"the fastest secular frequency ({omega:.4g} rad/s), more "
                f"than {MAX_FULL_PERIODS}")
        spacing = t_end / (samples - 1)
        if spacing >= math.pi / omega:
            warnings.warn(
                f"simulate.options.samples: {samples} samples over "
                f"{t_end:g} s are {spacing:.3g} s apart, at least pi/omega "
                f"for the fastest secular frequency ({omega:.4g} rad/s); "
                "the dominant frequency is aliased",
                FrequencyRangeWarning, stacklevel=2)
            return True
    return False


def _check_speed(speed: float):
    # the equations of motion are Newton's: a start at or above c is
    # outside the model (far above it DOP853's steps collapse)
    if not speed < CONST.c:
        raise ConfigError(f"simulate.initial.velocity_m_s: initial speed "
                          f"{speed:.9g} m/s is not below the speed of light "
                          f"({CONST.c:.9g} m/s); the model is non-relativistic")


def _check_rows(rows, keys: str):
    if rows > MAX_TRAJECTORY_ROWS:
        rows = rows if rows <= sys.float_info.max else math.inf   # huge int
        raise ConfigError(f"{keys}: the trajectory would have {rows:.3g} "
                          f"rows, more than {MAX_TRAJECTORY_ROWS}")
