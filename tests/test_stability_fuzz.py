"""Fuzz the stability grid ranges: --a/--q flags and the scan block.

Every draw must exit 0, 2 or 3, write ``stability.csv`` only on 0, and
exit 0 exactly when both axes obey the range rule (finite values,
min <= max, step > 0, at most ``MAX_SCAN_CELLS`` cells).  Bounds and steps
are drawn so that every valid grid has at most 9 x 9 cells, and every
other grid is either invalid or far past the cell cap, so each run with
``--steps 1`` takes milliseconds.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from optrap.cli import main
from optrap.config import MAX_SCAN_CELLS

MG24 = Path(__file__).resolve().parent.parent / "demos" / "mg24.json"

_BOUNDS = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0])
_BAD_BOUNDS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308])
_STEPS = st.sampled_from([0.25, 0.5, 1.0, 3.0])
_BAD_STEPS = st.sampled_from([0.0, -0.25, math.nan, math.inf, 1e-13, 5e-324])
_WRONG_TYPE = st.one_of(st.none(), st.text(max_size=3), st.booleans(),
                        st.lists(st.integers(), max_size=2))
_JUNK_FLAG = st.sampled_from(["", "1", "0:1", "0:1:0.5:2", "a:b:c", "0:1:x",
                              "0x1:2:1", " 0 : 1 : 0.5 "])


@st.composite
def _axis(draw):
    """A valid (min, max, step), or one with one value made bad."""
    lo, hi = sorted(draw(st.tuples(_BOUNDS, _BOUNDS)))
    axis = [lo, hi, draw(_STEPS)]
    flaw = draw(st.sampled_from(["none"] * 10 + ["min", "max", "step",
                                                 "swap", "huge"]))
    if flaw in ("min", "max"):
        axis[flaw == "max"] = draw(_BAD_BOUNDS)
    elif flaw == "step":
        axis[2] = draw(_BAD_STEPS)
    elif flaw == "swap":
        axis[:2] = hi, lo
    elif flaw == "huge":        # one cell, too large to integrate
        axis[:2] = [draw(st.sampled_from([1e308, -1e308]))] * 2
    return tuple(axis)


def _rule_holds(axes) -> bool:
    """The range rule, counted in floats: the draws never come near the cap."""
    if not all(math.isfinite(v) for axis in axes for v in axis):
        return False
    if not all(lo <= hi and step > 0 for lo, hi, step in axes):
        return False
    return math.prod((hi - lo) / step + 1 for lo, hi, step in axes) \
        <= MAX_SCAN_CELLS


@st.composite
def _sources(draw):
    """(flags, scan block or None, expected exit code or None if unknown)."""
    block_axes = {name: draw(_axis()) for name in "aq"}
    block = None
    if draw(st.booleans()):
        block = {f"{name}_{end}": value
                 for name, axis in block_axes.items()
                 for end, value in zip(("min", "max", "step"), axis)}
        if draw(st.integers(0, 3)) == 0:
            block[draw(st.sampled_from(sorted(block)))] = draw(_WRONG_TYPE)
    flags, axes, junk = {}, {}, False
    for name in "aq":
        kind = draw(st.sampled_from(["axis"] * 3 + ["junk", "none"]))
        if kind == "junk":
            flags[name] = draw(_JUNK_FLAG)
            junk = True
        elif kind == "axis":
            axis = draw(_axis())
            flags[name] = ":".join(repr(v) for v in axis)
            axes[name] = axis
        elif block is not None:
            axes[name] = block_axes[name]
    if block is not None and (
            not all(type(v) is float for v in block.values())
            or not _rule_holds(block_axes.values())):
        expected = 2        # the block is checked when the config is read
    elif junk:
        expected = None     # some junk strings still parse
    elif len(axes) < 2 or not _rule_holds(axes.values()):
        expected = 2
    elif any(abs(v) == 1e308 for lo, hi, _ in axes.values() for v in (lo, hi)):
        expected = 3        # the monodromy matrix overflows
    else:
        expected = 0
    return flags, block, expected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sources=_sources())
def test_stability_ranges_exit_cleanly_and_write_only_on_success(sources):
    flags, block, expected = sources
    cfg = json.loads(MG24.read_text(encoding="utf-8"))
    cfg.pop("scan")
    if block is not None:
        cfg["scan"] = block
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = Path(tmp) / "out"
        argv = ["stability", str(path), "--steps", "1", "--out-dir", str(out)]
        argv += [f"--{name}={text}" for name, text in flags.items()]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3)
        assert (out / "stability.csv").exists() == (code == 0)
        if expected is not None:
            assert code == expected
        if code == 0:
            rows = (out / "stability.csv").read_text().count("\n") - 1
            assert rows <= 81
