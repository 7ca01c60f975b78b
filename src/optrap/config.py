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
from dataclasses import dataclass
from pathlib import Path

from .constants import CONST
from .errors import ConfigError
from .model import IonSpecies, LaserBeam, TrapSetup, setup_from_beam
from .dipole_trap import effective_potential_at, power_for_depth
from . import units


_SIM_FULL_OPTION_KEYS = {"include_radiation_pressure", "force_model", "rtol",
                         "atol", "samples", "method"}
_SIM_DRIVEN_OPTION_KEYS = {"omega0_2pi_kHz", "drive_ratio", "field_V_m",
                           "steps_per_period", "drive_periods"}
# solve_ivp's method names and dynamics.integrate_full's force models
_SIM_METHODS = ("RK23", "RK45", "DOP853", "Radau", "BDF", "LSODA")
_SIM_FORCE_MODELS = ("exact_log", "low_sat")
# smallest absolute tolerance: at atol 1e-200 Radau and BDF raise and LSODA
# never returns; atol = 0 hangs RK45 and DOP853 on state components that
# stay exactly zero (0/0 error ratios); 1e-100 ends cleanly in every method
_SIM_MIN_ATOL = 1e-100


@dataclass(frozen=True)
class ParsedConfig:
    """A validated configuration converted to SI."""

    setup: TrapSetup
    beam_spec_mode: str            # "power" or "depth"
    beam_spec_value: float         # the literal from the file (mW or mK)
    blackbody_prefactor: float
    simulate: dict                 # {} when absent
    scan: dict                     # {} when absent
    raw: dict                      # the config exactly as read (echoed in reports)


def _require_section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigError(f"missing section: {name}")
    section = cfg[name]
    if not isinstance(section, dict):
        raise ConfigError(f"section {name} must be an object")
    return section


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


def load_config(path) -> ParsedConfig:
    """Read and validate a JSON configuration file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ParsedConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    _check_keys(raw, {"ion", "transition", "laser", "static", "environment",
                      "blackbody", "simulate", "scan"}, "config")

    ion_cfg = _require_section(raw, "ion")
    _check_keys(ion_cfg, {"mass_u", "charge_e"}, "ion")
    mass_u = _number(ion_cfg, "mass_u", "ion", minimum=0.0, strict_min=True)
    charge_e = _number(ion_cfg, "charge_e", "ion")
    ion = IonSpecies.from_amu(mass_u, charge_e)

    tr_cfg = _require_section(raw, "transition")
    _check_keys(tr_cfg, {"wavelength_nm", "linewidth_2pi_MHz"}, "transition")
    wavelength = units.metre_from_nm(
        _number(tr_cfg, "wavelength_nm", "transition", minimum=0.0,
                strict_min=True))
    linewidth = units.rad_s_from_2pi_mhz(
        _number(tr_cfg, "linewidth_2pi_MHz", "transition", minimum=0.0,
                strict_min=True))

    laser_cfg = _require_section(raw, "laser")
    _check_keys(laser_cfg, {"waist_um", "detuning_2pi_GHz", "power_mW",
                            "depth_mK"}, "laser")
    waist = units.metre_from_um(
        _number(laser_cfg, "waist_um", "laser", minimum=0.0, strict_min=True))
    detuning = units.rad_s_from_2pi_ghz(
        _number(laser_cfg, "detuning_2pi_GHz", "laser"))
    has_power = "power_mW" in laser_cfg
    has_depth = "depth_mK" in laser_cfg
    if has_power == has_depth:
        raise ConfigError("laser needs exactly one of power_mW, depth_mK")

    static_cfg = raw.get("static", {})
    if not isinstance(static_cfg, dict):
        raise ConfigError("section static must be an object")
    _check_keys(static_cfg, {"curvatures_2pi_kHz_squared"}, "static")
    curvatures = (0.0, 0.0, 0.0)
    if "curvatures_2pi_kHz_squared" in static_cfg:
        values = static_cfg["curvatures_2pi_kHz_squared"]
        if (not isinstance(values, list) or len(values) != 3
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       or not math.isfinite(float(v)) for v in values)):
            raise ConfigError("static.curvatures_2pi_kHz_squared must be a "
                              "list of 3 finite numbers")
        curvatures = tuple(units.curvature_from_2pi_khz_sq(float(v))
                           for v in values)

    env_cfg = raw.get("environment", {})
    if not isinstance(env_cfg, dict):
        raise ConfigError("section environment must be an object")
    _check_keys(env_cfg, {"temperature_K"}, "environment")
    temperature = _number(env_cfg, "temperature_K", "environment",
                          required=False, default=300.0, minimum=0.0)

    bb_cfg = raw.get("blackbody", {})
    if not isinstance(bb_cfg, dict):
        raise ConfigError("section blackbody must be an object")
    _check_keys(bb_cfg, {"prefactor_multiplier"}, "blackbody")
    prefactor = _number(bb_cfg, "prefactor_multiplier", "blackbody",
                        required=False, default=1.0, minimum=0.0,
                        strict_min=True)

    simulate = raw.get("simulate", {})
    if not isinstance(simulate, dict):
        raise ConfigError("section simulate must be an object")
    if simulate:
        _validate_simulate(simulate)

    scan = raw.get("scan", {})
    if not isinstance(scan, dict):
        raise ConfigError("section scan must be an object")
    if scan:
        _check_keys(scan, {"a_min", "a_max", "a_step", "q_min", "q_max",
                           "q_step", "monodromy_steps"}, "scan")
        for key in ("a_min", "a_max", "a_step", "q_min", "q_max", "q_step"):
            _number(scan, key, "scan")
        if "monodromy_steps" in scan:
            check_steps(scan["monodromy_steps"], "scan.monodromy_steps")

    if has_power:
        mode = "power"
        literal = _number(laser_cfg, "power_mW", "laser", minimum=0.0)
        beam = LaserBeam(wavelength=wavelength, waist_radius=waist,
                         detuning=detuning,
                         power=units.watt_from_mw(literal))
    else:
        mode = "depth"
        literal = _number(laser_cfg, "depth_mK", "laser", minimum=0.0,
                          strict_min=True)
        if detuning >= 0:
            raise ConfigError("depth_mK requires red detuning "
                              "(negative detuning_2pi_GHz)")
        probe = LaserBeam(wavelength=wavelength, waist_radius=waist,
                          detuning=detuning, power=1.0)
        probe_setup = setup_from_beam(ion, probe, linewidth)
        power = power_for_depth(probe_setup, units.joule_from_mk(literal))
        beam = LaserBeam(wavelength=wavelength, waist_radius=waist,
                         detuning=detuning, power=power)

    setup = setup_from_beam(ion, beam, linewidth,
                            static_curvatures=curvatures,
                            temperature=temperature)
    return ParsedConfig(setup=setup, beam_spec_mode=mode,
                        beam_spec_value=literal,
                        blackbody_prefactor=prefactor,
                        simulate=simulate, scan=scan, raw=raw)


def _validate_simulate(sim: dict):
    _check_keys(sim, {"mode", "initial", "t_end_s", "options"}, "simulate")
    mode = sim.get("mode")
    if mode not in ("full", "driven"):
        raise ConfigError("simulate.mode must be 'full' or 'driven'")
    options = sim.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("simulate.options must be an object")
    initial = sim.get("initial", {})
    if not isinstance(initial, dict):
        raise ConfigError("simulate.initial must be an object")
    path = "simulate.options"
    if mode == "full":
        _check_keys(options, _SIM_FULL_OPTION_KEYS, path)
        _check_keys(initial, {"position_m", "velocity_m_s"}, "simulate.initial")
        _number(sim, "t_end_s", "simulate", minimum=0.0, strict_min=True)
        _choice(options, "method", path, _SIM_METHODS)
        _choice(options, "force_model", path, _SIM_FORCE_MODELS)
        _number(options, "rtol", path, required=False, minimum=0.0,
                strict_min=True)
        _number(options, "atol", path, required=False, minimum=_SIM_MIN_ATOL)
        if "samples" in options:
            _integer(options["samples"], f"{path}.samples", 2)
        if not isinstance(options.get("include_radiation_pressure", True),
                          bool):
            raise ConfigError(f"{path}.include_radiation_pressure must be "
                              "true or false")
        for key in ("position_m", "velocity_m_s"):
            vec = initial.get(key, [0.0, 0.0, 0.0])
            if (not isinstance(vec, list) or len(vec) != 3
                    or any(isinstance(v, bool) or not isinstance(v, (int, float))
                           or not math.isfinite(float(v)) for v in vec)):
                raise ConfigError(f"simulate.initial.{key} must be a list of "
                                  "3 finite numbers")
    else:
        _check_keys(options, _SIM_DRIVEN_OPTION_KEYS, path)
        _check_keys(initial, {"position_m", "velocity_m_s"}, "simulate.initial")
        for key in ("position_m", "velocity_m_s"):
            if key in initial:
                value = initial[key]
                if (isinstance(value, bool)
                        or not isinstance(value, (int, float))
                        or not math.isfinite(float(value))):
                    raise ConfigError(f"simulate.initial.{key} must be a "
                                      "finite number (1-D driven motion)")
        _number(options, "omega0_2pi_kHz", path, minimum=0.0, strict_min=True)
        _number(options, "drive_ratio", path, minimum=0.0, strict_min=True)
        _number(options, "field_V_m", path, minimum=0.0)
        if "steps_per_period" in options:
            _integer(options["steps_per_period"], f"{path}.steps_per_period",
                     64)
        if "drive_periods" in options:
            check_steps(options["drive_periods"], f"{path}.drive_periods")
        if "t_end_s" in sim:
            _number(sim, "t_end_s", "simulate", minimum=0.0, strict_min=True)
        elif "drive_periods" not in options:
            raise ConfigError("driven simulate needs t_end_s or "
                              "options.drive_periods")


def render_config(parsed: ParsedConfig) -> dict:
    """Convert a parsed (SI) configuration back to interface units.

    Involutive against parsing to within float round-trip: rendering the
    parse of a config reproduces its literals to 9 significant digits.
    """
    setup = parsed.setup
    beam = setup.beam
    laser = {"waist_um": units.um_from_metre(beam.waist_radius),
             "detuning_2pi_GHz": units.two_pi_ghz_from_rad_s(beam.detuning)}
    if parsed.beam_spec_mode == "power":
        laser["power_mW"] = units.mw_from_watt(beam.beam_power)
    else:
        depth = abs(effective_potential_at(setup, (0.0, 0.0, 0.0),
                                           mode="low_sat"))
        laser["depth_mK"] = units.mk_from_joule(depth)
    out = {
        "ion": {"mass_u": setup.ion.total_mass / CONST.atomic_mass_unit,
                "charge_e": setup.ion.total_charge / CONST.e_charge},
        "transition": {
            "wavelength_nm": units.nm_from_metre(beam.wavelength),
            "linewidth_2pi_MHz": units.two_pi_mhz_from_rad_s(
                setup.transition.linewidth)},
        "laser": laser,
        "static": {"curvatures_2pi_kHz_squared": [
            units.curvature_to_2pi_khz_sq(v) for v in setup.static_curvatures]},
        "environment": {"temperature_K": setup.temperature},
        "blackbody": {"prefactor_multiplier": parsed.blackbody_prefactor},
    }
    return out
