"""Configuration parsing, validation and unit conversion."""

import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from optrap.config import load_config, parse_config
from optrap.constants import CONST
from optrap.dipole_trap import power_for_depth
from optrap.errors import ConfigError, FrequencyRangeWarning
from optrap.reporting import build_report

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
    assert setup.linewidth == pytest.approx(2 * np.pi * 40e6)
    assert setup.static_curvatures[2] == pytest.approx((2 * np.pi * 45e3) ** 2)
    # depth anchor inverted to power: kB x 50 mK reproduced exactly
    from optrap import effective_potential_at
    depth = abs(effective_potential_at(setup, (0, 0, 0), mode="low_sat"))
    assert depth == pytest.approx(CONST.kB * 50e-3, rel=1e-12)


def test_unit_conversions_are_bit_exact():
    # every converted key against its hand formula, in a fixed evaluation
    # order; each input is one where another order gives other bits
    two_pi = 2.0 * math.pi
    nm, mhz, um, ghz, mw, mk = 280.009, 40.001, 7.002, -300.0, 100.003, 50.019
    curv, khz = (-0.5, 0.0, 2025.04), 100.0
    cfg = {"ion": {"mass_u": 24.0, "charge_e": 1.0},
           "transition": {"wavelength_nm": nm, "linewidth_2pi_MHz": mhz},
           "laser": {"waist_um": um, "detuning_2pi_GHz": ghz, "power_mW": mw},
           "static": {"curvatures_2pi_kHz_squared": list(curv)},
           "simulate": {"mode": "driven", "options": {
               "omega0_2pi_kHz": khz, "drive_ratio": 10.0, "field_V_m": 1.0,
               "drive_periods": 2}}}
    parsed = parse_config(cfg)
    setup, beam = parsed.setup, parsed.setup.beam
    assert beam.wavelength == nm * 1e-9 != nm / 1e9
    assert setup.linewidth == two_pi * mhz * 1e6 != two_pi * (mhz * 1e6)
    assert beam.waist_radius == um * 1e-6 != um / 1e6
    assert beam.detuning == two_pi * ghz * 1e9 != two_pi * (ghz * 1e9)
    assert beam.power == mw * 1e-3 != mw / 1e3
    assert setup.static_curvatures == tuple(v * (two_pi * 1e3) ** 2
                                            for v in curv)
    assert curv[2] * (two_pi * 1e3) ** 2 != curv[2] * two_pi ** 2 * 1e6
    omega0 = parsed.simulate["spec"]["omega0"]
    assert omega0 == two_pi * (khz * 1e3) != two_pi * khz * 1e3

    # depth_mK: the power is the inversion of exactly kB * T * 1e-3
    del cfg["laser"]["power_mW"]
    cfg["laser"]["depth_mK"] = mk
    power = parse_config(cfg).setup.beam.power
    unit_setup = replace(setup, beam=replace(beam, power=1.0))
    assert power == power_for_depth(unit_setup, CONST.kB * mk * 1e-3)
    assert power != power_for_depth(unit_setup, CONST.kB * (mk * 1e-3))

    # the report's two converted outputs
    report = build_report(parse_config(cfg))
    rows = report["hierarchy"]
    assert all(row["two_pi_hz"] == row["rad_s"] / two_pi for row in rows)
    assert any(row["rad_s"] / two_pi != row["rad_s"] * (1 / two_pi)
               for row in rows)
    depth = report["trap"]["depth_J"]
    assert report["trap"]["depth_mK"] == depth / CONST.kB * 1e3
    assert depth / CONST.kB * 1e3 != depth * 1e3 / CONST.kB


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
    assert parsed.setup.beam.power == pytest.approx(0.1)
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(variant(laser__depth_mK=...))


def test_nonfinite_rejected():
    with pytest.raises(ConfigError, match="finite"):
        parse_config(variant(environment__temperature_K=float("nan")))
    with pytest.raises(ConfigError, match="finite"):
        parse_config(variant(laser__detuning_2pi_GHz=float("inf")))
    # integers past the float range: a scalar and a curvature element
    with pytest.raises(ConfigError, match="ion.mass_u must be finite"):
        parse_config(variant(ion__mass_u=10 ** 400))
    with pytest.raises(ConfigError, match="static.curvatures_2pi_kHz_squared"):
        parse_config(variant(static__curvatures_2pi_kHz_squared=[
            0.0, 10 ** 400, 0.0]))


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


def test_full_span_cap_counts_periods_of_the_fastest_secular_frequency():
    from optrap.config import MAX_FULL_PERIODS, check_full_span
    from optrap.dipole_trap import trap_summary
    cfg = copy.deepcopy(BASE)
    # a (2 pi x 1 MHz)^2 axial curvature makes the axial axis the fastest
    cfg["static"]["curvatures_2pi_kHz_squared"] = [0.0, 0.0, 1e6]
    setup = parse_config(cfg).setup
    omega = trap_summary(setup).combined_trap_frequencies[2]
    assert omega > 5 * trap_summary(parse_config(BASE).setup).omega0
    longest = MAX_FULL_PERIODS * 2 * np.pi / omega
    with pytest.warns(FrequencyRangeWarning, match="aliased"):
        check_full_span(setup, 0.99 * longest)
    with pytest.raises(ConfigError, match="simulate.t_end_s"):
        check_full_span(setup, 1.01 * longest)


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
    # nesting past the recursion limit; an integer past int()'s digit limit
    for text in ("[" * 100_000, "1" + "0" * 5000):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(bad)
