"""Fuzz the physical config sections through ``trap report``.

Each draw starts from ``demos/mg24.json``, gives the beam by power or by
depth, and replaces some of the ion, transition, laser, static,
environment and blackbody values with ordinary numbers, numbers of the
wrong sign, or extremes out to +-1e+-300; one draw in eight instead
makes the ion neutral in a bath at one of those extreme temperatures.
Every draw must exit 0, 2 or 3 (an uncaught exception, the CLI's exit 1,
fails the test) and leave ``report.json``/``report.txt`` exactly when it
exits 0.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from optrap.cli import main

from conftest import foreign_warnings

MG24 = Path(__file__).resolve().parent.parent / "demos" / "mg24.json"

_KEYS = [("ion", "mass_u"), ("ion", "charge_e"),
         ("transition", "wavelength_nm"), ("transition", "linewidth_2pi_MHz"),
         ("laser", "waist_um"), ("laser", "detuning_2pi_GHz"),
         ("laser", "beam"), ("static", "curvatures_2pi_kHz_squared"),
         ("environment", "temperature_K"),
         ("blackbody", "prefactor_multiplier")]
_EXTREMES = [1e-300, -1e-300, 1e300, -1e300, 1e-30, 1e30, 5e-324,
             1.7e308, -1.7e308, 0.0, -1.0]


@st.composite
def _value(draw, base):
    """An extreme, or the base value scaled by a moderate factor."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_EXTREMES))
    return base * draw(st.sampled_from([1e-6, 1e-3, 0.1, 0.5, 2.0, 1e3,
                                        1e6, -1.0]))


@st.composite
def _configs(draw):
    cfg = json.loads(MG24.read_text(encoding="utf-8"))
    del cfg["simulate"], cfg["scan"]
    laser = cfg["laser"]
    beam_key = draw(st.sampled_from(["power_mW", "depth_mK"]))
    beam_value = laser.pop("depth_mK") if beam_key == "depth_mK" else 100.0
    cfg["static"]["curvatures_2pi_kHz_squared"] = [0.0, 0.0, 2025.0]
    # a neutral ion heats at rate 0 in any bath, so a temperature whose
    # Bose occupation leaves the float range still exits 0 and its stderr
    # is read; such a draw changes no other value
    neutral_bath = draw(st.integers(min_value=0, max_value=7)) == 0
    for section, key in [] if neutral_bath else draw(st.lists(
            st.sampled_from(_KEYS), min_size=1, max_size=3, unique=True)):
        if key == "beam":
            beam_value = draw(_value(beam_value))
        elif key == "curvatures_2pi_kHz_squared":
            cfg[section][key] = [draw(_value(2025.0)) for _ in range(3)]
        else:
            cfg[section][key] = draw(_value(cfg[section][key]))
    laser[beam_key] = beam_value
    if neutral_bath:
        cfg["ion"]["charge_e"] = 0.0
        cfg["environment"]["temperature_K"] = draw(st.sampled_from(_EXTREMES))
    return cfg


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(cfg=_configs())
def test_report_exits_cleanly_and_writes_only_on_success(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["report", str(path), "--out-dir", str(out)])
        assert code in (0, 2, 3)
        for name in ("report.json", "report.txt"):
            assert (out / name).exists() == (code == 0)


# without the filter above, a successful report prints only TrapWarnings:
# a numpy or scipy warning names no config key and no rule
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(cfg=_configs())
def test_successful_report_prints_only_package_warnings(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = main(["report", str(path), "--out-dir", tmp])
        if code == 0:
            assert foreign_warnings(stderr.getvalue()) == []
