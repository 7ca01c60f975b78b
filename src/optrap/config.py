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
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError, FrequencyRangeWarning
from .model import IonSpecies, LaserBeam, TrapSetup, setup_from_beam
from .dipole_trap import (FOCUS, FORCE_MODELS, effective_potential_at,
                          power_for_depth, secular_curvatures)
from .dynamics import DEFAULT_SAMPLES, MIN_ATOL, driven_steps
from .mathieu_floquet import grid_count
from . import units


_SIM_FULL_OPTION_KEYS = {"include_radiation_pressure", "force_model", "rtol",
                         "atol", "samples"}
_SIM_DRIVEN_OPTION_KEYS = {"omega0_2pi_kHz", "drive_ratio", "field_V_m",
                           "steps_per_period", "drive_periods"}
# most (a, q) cells one stability scan may have: the batched scan peaks at
# about 0.5 kB per cell (tracemalloc, 2,500 to 40,000 cells), so ~0.5 GB
MAX_SCAN_CELLS = 1_000_000
# most rows one trajectory may have: a full or driven `trap simulate` peaks
# at about 0.48 kB per row (tracemalloc, 10,000 to 41,000 rows), so ~0.5 GB
MAX_TRAJECTORY_ROWS = 1_000_000
# longest full-mode span, in periods of the fastest real secular frequency:
# DOP853 spends ~260 force evaluations per period, so mg24 over 10**4
# radial periods takes ~75 s (2-vCPU VM)
MAX_FULL_PERIODS = 10_000


@dataclass(frozen=True)
class ParsedConfig:
    """A validated configuration converted to SI."""

    setup: TrapSetup
    beam_spec_mode: str            # "power" or "depth"
    blackbody_prefactor: float
    # {} when absent; "initial" a (pos, vel) pair; a driven block adds
    # "spec" (the SI DrivenOscillatorSpec fields but charge and mass) and
    # "run" (integrate_driven's keyword arguments)
    simulate: dict
    scan: dict                     # {} when absent
    raw: dict                      # the config exactly as read (echoed in reports)


def _section(cfg: dict, name: str, required=False, path="") -> dict:
    if name not in cfg:
        if required:
            raise ConfigError(f"missing section: {name}")
        return {}
    if not isinstance(cfg[name], dict):
        raise ConfigError(f"section {path}{name} must be an object")
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
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key} must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key} must be finite")
    if minimum is not None:
        if strict_min and not value > minimum:
            raise ConfigError(f"{path}.{key} must be > {minimum}")
        if not strict_min and not value >= minimum:
            raise ConfigError(f"{path}.{key} must be >= {minimum}")
    return value


def _vector3(section: dict, key: str, path: str) -> tuple:
    values = section.get(key, [0.0, 0.0, 0.0])
    if (not isinstance(values, list) or len(values) != 3
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   or not math.isfinite(float(v)) for v in values)):
        raise ConfigError(f"{path}.{key} must be a list of 3 finite numbers")
    return tuple(float(v) for v in values)


def _integer(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, "
                          f"got {value!r}")
    return value


def check_steps(value, name: str) -> int:
    """A monodromy step count: an integer >= 1 (bools rejected)."""
    return _integer(value, name, 1)


def _choice(section: dict, key: str, path: str, allowed):
    if key in section and section[key] not in allowed:
        raise ConfigError(f"{path}.{key} must be one of "
                          f"{', '.join(allowed)}, got {section[key]!r}")


def range_flag(text: str, name: str) -> tuple:
    """(``--name``, (min, max, step)) from a ``min:max:step`` flag."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--{name} must be min:max:step")
    try:
        return f"--{name}", tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--{name} must contain numbers: {text!r}") from exc


def block_range(scan: dict, name: str) -> tuple:
    """(key names, (min, max, step)) of one axis of a scan block."""
    keys = tuple(f"{name}_{end}" for end in ("min", "max", "step"))
    return "scan." + "/".join(keys), tuple(_number(scan, key, "scan")
                                           for key in keys)


def check_scan(axes) -> list:
    """The grid-range rule of every stability scan, flag or config.

    ``axes`` holds (name, (min, max, step)) pairs.  Every value must be
    finite, min <= max and step > 0, and the grid at most
    ``MAX_SCAN_CELLS`` cells.  Returns the (min, max, step) triples.
    """
    cells = 1
    for name, (lo, hi, step) in axes:
        if not all(math.isfinite(v) for v in (lo, hi, step)):
            raise ConfigError(f"{name} must be finite, got {lo}:{hi}:{step}")
        if step <= 0 or hi < lo:
            raise ConfigError(f"{name} needs min <= max and step > 0, got "
                              f"{lo}:{hi}:{step}")
        cells *= grid_count(lo, hi, step)
    if cells > MAX_SCAN_CELLS:
        raise ConfigError(f"{' x '.join(name for name, _ in axes)} grid has "
                          f"{cells:.3g} cells, more than {MAX_SCAN_CELLS}")
    return [values for _, values in axes]


def load_config(path) -> ParsedConfig:
    """Read and validate a JSON configuration file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ParsedConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    _check_keys(raw, {"ion", "transition", "laser", "static", "environment",
                      "blackbody", "simulate", "scan"}, "config")

    ion_cfg = _section(raw, "ion", required=True)
    _check_keys(ion_cfg, {"mass_u", "charge_e"}, "ion")
    mass_u = _number(ion_cfg, "mass_u", "ion")
    charge_e = _number(ion_cfg, "charge_e", "ion")
    with _model_checks("ion.mass_u", "ion.charge_e"):
        ion = IonSpecies.from_amu(mass_u, charge_e)

    tr_cfg = _section(raw, "transition", required=True)
    _check_keys(tr_cfg, {"wavelength_nm", "linewidth_2pi_MHz"}, "transition")
    wavelength = units.metre_from_nm(
        _number(tr_cfg, "wavelength_nm", "transition"))
    linewidth = units.rad_s_from_2pi_mhz(
        _number(tr_cfg, "linewidth_2pi_MHz", "transition"))

    laser_cfg = _section(raw, "laser", required=True)
    _check_keys(laser_cfg, {"waist_um", "detuning_2pi_GHz", "power_mW",
                            "depth_mK"}, "laser")
    waist = units.metre_from_um(
        _number(laser_cfg, "waist_um", "laser"))
    detuning = units.rad_s_from_2pi_ghz(
        _number(laser_cfg, "detuning_2pi_GHz", "laser"))
    has_power = "power_mW" in laser_cfg
    has_depth = "depth_mK" in laser_cfg
    if has_power == has_depth:
        raise ConfigError("laser needs exactly one of power_mW, depth_mK")

    static_cfg = _section(raw, "static")
    _check_keys(static_cfg, {"curvatures_2pi_kHz_squared"}, "static")
    curvatures = tuple(units.curvature_from_2pi_khz_sq(v) for v in _vector3(
        static_cfg, "curvatures_2pi_kHz_squared", "static"))

    env_cfg = _section(raw, "environment")
    _check_keys(env_cfg, {"temperature_K"}, "environment")
    temperature = _number(env_cfg, "temperature_K", "environment",
                          required=False, default=300.0, minimum=0.0)

    bb_cfg = _section(raw, "blackbody")
    _check_keys(bb_cfg, {"prefactor_multiplier"}, "blackbody")
    prefactor = _number(bb_cfg, "prefactor_multiplier", "blackbody",
                        required=False, default=1.0, minimum=0.0,
                        strict_min=True)

    simulate = _section(raw, "simulate")
    if simulate:
        simulate = _validate_simulate(simulate)

    scan = _section(raw, "scan")
    if scan:
        _check_keys(scan, {"a_min", "a_max", "a_step", "q_min", "q_max",
                           "q_step", "monodromy_steps"}, "scan")
        check_scan([block_range(scan, "a"), block_range(scan, "q")])
        if "monodromy_steps" in scan:
            check_steps(scan["monodromy_steps"], "scan.monodromy_steps")

    mode, key = ("power", "power_mW") if has_power else ("depth", "depth_mK")
    literal = _number(laser_cfg, key, "laser", minimum=0.0, strict_min=True)
    with _model_checks("transition.wavelength_nm", "laser.waist_um"):
        unit_beam = LaserBeam(wavelength=wavelength, waist_radius=waist,
                              detuning=detuning, power=1.0)
    with _model_checks("transition.wavelength_nm",
                       "transition.linewidth_2pi_MHz", "laser.detuning_2pi_GHz",
                       "static.curvatures_2pi_kHz_squared"):
        unit_setup = setup_from_beam(ion, unit_beam, linewidth,
                                     static_curvatures=curvatures,
                                     temperature=temperature)
    if has_power:
        power = units.watt_from_mw(literal)
    elif detuning >= 0:
        raise ConfigError("depth_mK requires red detuning "
                          "(negative detuning_2pi_GHz)")
    else:
        with _model_checks("transition.linewidth_2pi_MHz", "laser.waist_um",
                           "laser.detuning_2pi_GHz", "laser.depth_mK"):
            power = power_for_depth(unit_setup, units.joule_from_mk(literal))
    with _model_checks(f"laser.{key}"):
        setup = replace(unit_setup, beam=unit_beam.scaled_power(power))
    return ParsedConfig(setup=setup, beam_spec_mode=mode,
                        blackbody_prefactor=prefactor,
                        simulate=simulate, scan=scan, raw=raw)


def _validate_simulate(sim: dict) -> dict:
    """Check a simulate block; fill in "options" and "initial"."""
    _check_keys(sim, {"mode", "initial", "t_end_s", "options"}, "simulate")
    mode = sim.get("mode")
    if mode not in ("full", "driven"):
        raise ConfigError("simulate.mode must be 'full' or 'driven'")
    options = _section(sim, "options", path="simulate.")
    initial = _section(sim, "initial", path="simulate.")
    keys = ("position_m", "velocity_m_s")
    _check_keys(initial, keys, "simulate.initial")
    path = "simulate.options"
    if mode == "full":
        _check_keys(options, _SIM_FULL_OPTION_KEYS, path)
        initial = tuple(_vector3(initial, key, "simulate.initial")
                        for key in keys)
        _number(sim, "t_end_s", "simulate", minimum=0.0, strict_min=True)
        _choice(options, "force_model", path, FORCE_MODELS)
        _number(options, "rtol", path, required=False, minimum=0.0,
                strict_min=True)
        _number(options, "atol", path, required=False, minimum=MIN_ATOL)
        if "samples" in options:
            _check_rows(_integer(options["samples"], f"{path}.samples", 2),
                        f"{path}.samples")
        if not isinstance(options.get("include_radiation_pressure", True),
                          bool):
            raise ConfigError(f"{path}.include_radiation_pressure must be "
                              "true or false")
    else:
        _check_keys(options, _SIM_DRIVEN_OPTION_KEYS, path)
        # 1-D driven motion: scalar initial conditions
        initial = tuple(_number(initial, key, "simulate.initial",
                                required=False, default=0.0) for key in keys)
        khz = _number(options, "omega0_2pi_kHz", path, minimum=0.0,
                      strict_min=True)
        ratio = _number(options, "drive_ratio", path, minimum=0.0,
                        strict_min=True)
        field = _number(options, "field_V_m", path, minimum=0.0)
        run = {}   # integrate_driven's keyword arguments
        if "steps_per_period" in options:
            run["steps_per_period"] = _integer(
                options["steps_per_period"], f"{path}.steps_per_period", 64)
        durations = []
        if "drive_periods" in options:
            run["drive_periods"] = check_steps(options["drive_periods"],
                                               f"{path}.drive_periods")
            durations.append(f"{path}.drive_periods")
        if "t_end_s" in sim:
            run["t_end"] = _number(sim, "t_end_s", "simulate", minimum=0.0,
                                   strict_min=True)
            durations.append("simulate.t_end_s")
        if len(durations) != 1:
            raise ConfigError("driven simulate needs exactly one of "
                              "simulate.t_end_s, "
                              "simulate.options.drive_periods")
        omega0 = units.rad_s_from_2pi_hz(khz * 1e3)
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
        return {**sim, "options": options, "initial": initial, "run": run,
                "spec": {"omega0": omega0, "drive_frequency": drive,
                         "field_amplitude": field, "x0": initial[0],
                         "v0": initial[1]}}
    return {**sim, "options": options, "initial": initial}


def check_full_span(setup: TrapSetup, t_end: float,
                    samples: int = DEFAULT_SAMPLES):
    """Refuse a full-mode span past ``MAX_FULL_PERIODS`` periods of the
    fastest real secular frequency omega; warn if ``samples`` alias it (are
    pi/omega or more apart).  Without one (an unconfined ion escapes) or
    past the float range, the run's physics checks decide.  Only `trap
    simulate` runs it: a report on the same trap stays valid."""
    depth = -effective_potential_at(setup, FOCUS)
    omega_sq = max(secular_curvatures(setup, depth))
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


def _check_rows(rows, keys: str):
    if rows > MAX_TRAJECTORY_ROWS:
        raise ConfigError(f"{keys}: the trajectory would have {rows:.3g} "
                          f"rows, more than {MAX_TRAJECTORY_ROWS}")
