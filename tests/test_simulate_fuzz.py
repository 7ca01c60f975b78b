"""Fuzz the simulate.options contract: exit 0, 2 or 3, and no file on 2 or 3."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from optrap.cli import main
from optrap.dynamics import MIN_RTOL

from conftest import foreign_warnings

MG24 = Path(__file__).resolve().parent.parent / "demos" / "mg24.json"

_WRONG_TYPE = st.one_of(st.none(), st.text(max_size=4), st.booleans(),
                        st.lists(st.integers(), max_size=2))

# (valid values, invalid values) per option; a drawn block has any subset
# of valid options and at most one invalid one
_FULL = {
    "force_model": (st.sampled_from(["exact_log", "low_sat"]),
                    st.one_of(st.just("bar"), _WRONG_TYPE)),
    "rtol": (st.one_of(st.floats(min_value=MIN_RTOL, max_value=1e-2),
                       st.sampled_from([MIN_RTOL, 1.0, 1e300])),
             st.one_of(st.sampled_from([0, -1, -1e-10, 1e-300]),
                       _WRONG_TYPE)),
    "atol": (st.one_of(st.floats(min_value=1e-20, max_value=1e-6),
                       st.sampled_from([1e-100, 1.0])),
             st.one_of(st.sampled_from([0, -1e-16, 1e-200]), _WRONG_TYPE)),
    "samples": (st.integers(min_value=2, max_value=40),
                st.one_of(st.integers(min_value=-2, max_value=1),
                          st.sampled_from([2.0, 2.5, 10**15]), _WRONG_TYPE)),
    "include_radiation_pressure": (st.booleans(),
                                   st.sampled_from([0, 1, "yes", None])),
}
# the valid frequencies and fields include values whose squares, products
# or trajectories pass the float range
_DRIVEN = {
    "omega0_2pi_kHz": (st.one_of(st.floats(min_value=1.0, max_value=1e3),
                                 st.sampled_from([1e-300, 1e300, 1e306])),
                       st.one_of(st.sampled_from([0.0, -1.0, float("nan"),
                                                  float("inf")]),
                                 _WRONG_TYPE)),
    "drive_ratio": (st.one_of(st.floats(min_value=0.5, max_value=100.0),
                              st.sampled_from([1e-10, 1.0, 1e7, 1e10])),
                    st.one_of(st.sampled_from([0.0, -10.0, float("inf")]),
                              _WRONG_TYPE)),
    "field_V_m": (st.one_of(st.floats(min_value=0.0, max_value=1e6),
                            st.sampled_from([1e300, 1.7e308])),
                  st.one_of(st.sampled_from([-1.0, float("nan")]),
                            _WRONG_TYPE)),
    "steps_per_period": (st.integers(min_value=64, max_value=200),
                         st.one_of(st.integers(min_value=0, max_value=63),
                                   st.just(64.0), _WRONG_TYPE)),
    "drive_periods": (st.integers(min_value=1, max_value=3),
                      st.one_of(st.integers(min_value=-1, max_value=0),
                                st.just(1.5), _WRONG_TYPE)),
}


@st.composite
def _simulate_blocks(draw):
    driven = draw(st.booleans())
    table = _DRIVEN if driven else _FULL
    options = draw(st.fixed_dictionaries(
        {}, optional={key: valid for key, (valid, _) in table.items()}))
    bad = draw(st.none() | st.sampled_from(sorted(table)))
    if bad is not None:
        options[bad] = draw(table[bad][1])
    if not driven:
        return {"mode": "full", "t_end_s": 1e-7, "options": options,
                "initial": {"position_m": [7e-8, 0.0, 0.0]}}
    block = {"mode": "driven",
             "options": {"omega0_2pi_kHz": 100.0, "drive_ratio": 10.0,
                         "field_V_m": 1.0, **options}}
    # t_end_s with a drawn drive_periods is the refused pair, and neither
    # is the refused missing duration
    if draw(st.booleans()):
        block["t_end_s"] = draw(st.sampled_from([1e-7, 1e300]))
    return block


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(simulate=_simulate_blocks())
def test_simulate_options_exit_cleanly_and_write_only_on_success(simulate):
    cfg = json.loads(MG24.read_text(encoding="utf-8"))
    cfg["simulate"] = simulate
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["simulate", str(path), "--out-dir", str(out)])
        assert code in (0, 2, 3)
        assert (out / "trajectory.csv").exists() == (code == 0)


# a successful run prints only TrapWarnings: e.g. scipy's warning that it
# raised rtol to its floor would name a tolerance the config did not give
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(simulate=_simulate_blocks())
def test_successful_simulate_prints_only_package_warnings(simulate):
    cfg = json.loads(MG24.read_text(encoding="utf-8"))
    cfg["simulate"] = simulate
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = main(["simulate", str(path), "--out-dir", tmp])
        if code == 0:
            assert foreign_warnings(stderr.getvalue()) == []
