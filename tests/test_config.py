"""Configuration parsing, validation and unit conversion."""

import copy
import json

import numpy as np
import pytest

from optrap.config import load_config, parse_config
from optrap.constants import CONST
from optrap.errors import ConfigError

BASE = {
    "ion": {"mass_u": 24.0, "charge_e": 1.0},
    "transition": {"wavelength_nm": 280.0, "linewidth_2pi_MHz": 40.0},
    "laser": {"waist_um": 7.0, "detuning_2pi_GHz": -300.0, "depth_mK": 50.0},
    "static": {"curvatures_2pi_kHz_squared": [0.0, 0.0, 2025.0]},
    "environment": {"temperature_K": 300.0},
    "blackbody": {"prefactor_multiplier": 1.0},
}


def variant(**overrides):
    cfg = copy.deepcopy(BASE)
    for path, value in overrides.items():
        section, key = path.split("__")
        if value is ...:
            del cfg[section][key]
        else:
            cfg[section][key] = value
    return cfg


def test_parse_reference():
    parsed = parse_config(BASE)
    setup = parsed.setup
    assert setup.ion.total_mass == pytest.approx(24 * CONST.atomic_mass_unit)
    assert setup.beam.wavelength == pytest.approx(280e-9)
    assert setup.beam.detuning == pytest.approx(-2 * np.pi * 300e9)
    assert setup.transition.linewidth == pytest.approx(2 * np.pi * 40e6)
    assert setup.static_curvatures[2] == pytest.approx((2 * np.pi * 45e3) ** 2)
    # depth anchor inverted to power: kB x 50 mK reproduced exactly
    from optrap import effective_potential_at
    depth = abs(effective_potential_at(setup, (0, 0, 0), mode="low_sat"))
    assert depth == pytest.approx(CONST.kB * 50e-3, rel=1e-12)
    assert parsed.beam_spec_mode == "depth"


def test_unknown_keys_rejected_by_name():
    cfg = copy.deepcopy(BASE)
    cfg["laser"]["powr_mW"] = 1.0
    with pytest.raises(ConfigError, match="laser.powr_mW"):
        parse_config(cfg)
    cfg = copy.deepcopy(BASE)
    cfg["unexpected"] = {}
    with pytest.raises(ConfigError, match="unexpected"):
        parse_config(cfg)


def test_exactly_one_power_spec():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(variant(laser__power_mW=100.0))
    both = variant(laser__power_mW=100.0)
    del both["laser"]["depth_mK"]
    parsed = parse_config(both)
    assert parsed.beam_spec_mode == "power"
    assert parsed.setup.beam.power == pytest.approx(0.1)
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(variant(laser__depth_mK=...))


def test_nonfinite_rejected():
    with pytest.raises(ConfigError, match="finite"):
        parse_config(variant(environment__temperature_K=float("nan")))
    with pytest.raises(ConfigError, match="finite"):
        parse_config(variant(laser__detuning_2pi_GHz=float("inf")))


def test_missing_required_key():
    with pytest.raises(ConfigError, match="ion.mass_u"):
        parse_config(variant(ion__mass_u=...))


def test_depth_requires_red_detuning():
    with pytest.raises(ConfigError, match="red detuning"):
        parse_config(variant(laser__detuning_2pi_GHz=300.0))


def test_bad_curvature_vector():
    with pytest.raises(ConfigError, match="curvatures"):
        parse_config(variant(static__curvatures_2pi_kHz_squared=[1.0, 2.0]))


def test_optional_sections_defaults():
    cfg = {k: copy.deepcopy(v) for k, v in BASE.items()
           if k in ("ion", "transition", "laser")}
    parsed = parse_config(cfg)
    assert parsed.setup.static_curvatures == (0.0, 0.0, 0.0)
    assert parsed.setup.temperature == 300.0
    assert parsed.blackbody_prefactor == 1.0
    assert parsed.simulate == {}


def test_simulate_block_validation():
    cfg = copy.deepcopy(BASE)
    cfg["simulate"] = {"mode": "sideways"}
    with pytest.raises(ConfigError, match="mode"):
        parse_config(cfg)
    cfg["simulate"] = {"mode": "full", "t_end_s": 1e-4,
                       "options": {"bogus": 1}}
    with pytest.raises(ConfigError, match="simulate.options.bogus"):
        parse_config(cfg)
    cfg["simulate"] = {"mode": "driven", "options": {
        "omega0_2pi_kHz": 100.0, "drive_ratio": 100.0, "field_V_m": 1e6}}
    with pytest.raises(ConfigError, match="drive_periods"):
        parse_config(cfg)


@pytest.mark.parametrize("steps", ["abc", 0.5, 0, -5, True, 4096.0])
def test_monodromy_steps_must_be_positive_integer(steps):
    cfg = copy.deepcopy(BASE)
    cfg["scan"] = {"a_min": 0.0, "a_max": 0.2, "a_step": 0.1,
                   "q_min": 0.0, "q_max": 0.2, "q_step": 0.1,
                   "monodromy_steps": steps}
    with pytest.raises(ConfigError, match="scan.monodromy_steps"):
        parse_config(cfg)
    cfg["scan"]["monodromy_steps"] = 64
    assert parse_config(cfg).scan["monodromy_steps"] == 64


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE), encoding="utf-8")
    parsed = load_config(path)
    assert parsed.raw == BASE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
