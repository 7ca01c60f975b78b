"""The package's ports of scipy code paths, checked bit for bit against
scipy itself: DOP853 (``integrators.solve_ivp`` with Brent's root for the
escape event), the bounded minimiser of ``dominant_frequency`` and the
bisection of ``equilibrium_shift``.  scipy is a test dependency only."""

from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import bisect, brentq, minimize_scalar

from optrap import dynamics, integrators
from optrap.config import load_config
from optrap.dynamics import (MIN_ATOL, MIN_RTOL, _bisect, dominant_frequency,
                             integrate_full)
from optrap.errors import EscapedTrap, NoRoot, StepFailure
from optrap.integrators import _brentq, solve_ivp

from conftest import make_reference_setup

MG24 = Path(__file__).resolve().parent.parent / "demos" / "mg24.json"


def test_dop853_coefficients_are_scipys():
    ours = {"C": integrators.DOP853_C, "A": integrators.DOP853_A,
            "B": integrators.DOP853_A[12, :12], "E3": integrators.DOP853_E3,
            "E5": integrators.DOP853_E5, "D": integrators.DOP853_D}
    for name, table in ours.items():
        theirs = getattr(dop853_coefficients, name)
        assert np.array_equal(table, theirs), name
        assert table.tobytes() == theirs.tobytes(), name


def _scipy_dop853(fun, t_span, y0, t_eval, rtol, atol, event):
    event.terminal, event.direction = True, 1.0
    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", t_eval=t_eval,
                           rtol=rtol, atol=atol, events=event)


def _solve_both(monkeypatch, setup, initial, t_end, **options):
    """(port, scipy) results of integrate_full's one solver call."""
    results = []

    def both(*args, **kwargs):
        results.append((solve_ivp(*args, **kwargs),
                        _scipy_dop853(*args, **kwargs)))
        return results[-1][0]
    monkeypatch.setattr(dynamics, "solve_ivp", both)
    try:
        integrate_full(setup, initial, t_end, **options)
    except (EscapedTrap, StepFailure):
        pass
    (port, ref), = results
    return port, ref


def _assert_same(port, ref):
    assert port.status == ref.status
    assert port.message == ref.message
    assert port.nfev == ref.nfev > 0
    # scipy returns empty lists when no sample was reached
    assert port.t.tobytes() == np.asarray(ref.t).tobytes()
    assert port.y.tobytes() == np.asarray(ref.y).tobytes()
    assert port.t_events[0].tobytes() == ref.t_events[0].tobytes()


@pytest.mark.parametrize("force_model", ["exact_log", "low_sat"])
@pytest.mark.parametrize("radiation", [True, False])
def test_dop853_bits_equal_scipy_on_mg24(monkeypatch, force_model, radiation):
    setup = load_config(MG24).setup
    port, ref = _solve_both(monkeypatch, setup, ((7e-8, 2e-8, 1e-7),
                                                 (0.01, 0.0, 0.0)), 2e-5,
                            include_radiation_pressure=radiation,
                            force_model=force_model, samples=1001)
    _assert_same(port, ref)
    assert port.status == 0 and port.t.size == 1001


def test_dop853_bits_equal_scipy_on_the_mg24_demo(monkeypatch):
    parsed = load_config(MG24)
    sim = parsed.simulate
    port, ref = _solve_both(monkeypatch, parsed.setup, sim["initial"],
                            sim["t_end_s"], **sim["options"])
    _assert_same(port, ref)
    assert port.status == 0 and port.t.size == 32769


@pytest.mark.parametrize("t_end,options", [
    (1e-5, {"rtol": MIN_RTOL, "atol": MIN_ATOL, "samples": 65}),
    (1e-5, {"samples": 2}),
    (1e-5, {"samples": 333}),
    # a span shorter than the first step selected for it
    (1e-14, {"samples": 5}),
])
def test_dop853_bits_equal_scipy_on_edge_options(monkeypatch, t_end, options):
    setup = make_reference_setup(static=(0.0, 0.0, 1e10))
    port, ref = _solve_both(monkeypatch, setup, ((7e-8, 0.0, 0.0),
                                                 (0.0, 0.0, 0.0)), t_end,
                            **options)
    _assert_same(port, ref)
    assert port.status == 0 and port.t.size == options["samples"]
    if t_end == 1e-14:
        # one step, taken at the span: 2 + 12 evaluations + 3 dense stages
        assert port.nfev == 17


def test_dop853_bits_equal_scipy_at_rest_in_the_focus(monkeypatch):
    # f = 0 everywhere: the smallest initial step and zero error estimates
    setup = make_reference_setup()
    port, ref = _solve_both(monkeypatch, setup, ((0.0,) * 3, (0.0,) * 3),
                            1e-6, include_radiation_pressure=False, samples=5)
    _assert_same(port, ref)
    assert not np.any(port.y)


@pytest.mark.parametrize("speed", [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0])
def test_escape_time_and_message_equal_scipy(monkeypatch, speed):
    setup = make_reference_setup(static=(0.0, 0.0, 1e10))
    initial = ((7e-8, 0.0, 0.0), (speed, 0.0, speed / 7))
    port, ref = _solve_both(monkeypatch, setup, initial, 1e-3, samples=5)
    _assert_same(port, ref)
    assert port.status == 1
    root = port.t_events[0][0]
    messages = []
    for solver in (solve_ivp, _scipy_dop853):
        monkeypatch.setattr(dynamics, "solve_ivp", solver)
        with pytest.raises(EscapedTrap) as caught:
            integrate_full(setup, initial, 1e-3, samples=5)
        messages.append(str(caught.value))
    assert messages[0] == messages[1] == \
        f"ion beyond 100 waists at t = {root:.3e} s"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_failure_equals_scipy(monkeypatch, mg_setup):
    # at 1e200 m/s a stage lands where r^2 overflows and the force is NaN:
    # the steps shrink to the float spacing
    initial = ((7e-8, 0.0, 0.0), (1e200, 0.0, 0.0))
    port, ref = _solve_both(monkeypatch, mg_setup, initial, 1e-6, samples=5)
    _assert_same(port, ref)
    assert port.status == -1
    monkeypatch.setattr(dynamics, "solve_ivp", solve_ivp)
    with pytest.raises(StepFailure) as caught:
        integrate_full(mg_setup, initial, 1e-6, samples=5)
    assert str(caught.value) == ref.message == \
        "Required step size is less than spacing between numbers."


@pytest.mark.parametrize("seed", range(5))
def test_brentq_port_equals_scipy(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        c, p = rng.uniform(-0.2, 0.2), rng.integers(1, 6)
        lo, hi = rng.uniform(-3, -1), rng.uniform(1, 3)

        def f(x):
            return np.tanh(x) ** p * np.sign(x) ** (p + 1) - c
        tol = 10 ** rng.uniform(-16, -4)
        assert _brentq(f, lo, hi, tol, 4 * np.finfo(float).eps) == \
            brentq(f, lo, hi, xtol=tol)
    assert _brentq(np.sin, 0.0, 1.0, 1e-12, 1e-15) == 0.0
    assert _brentq(np.sin, -1.0, 0.0, 1e-12, 1e-15) == 0.0


def test_brentq_port_refuses_as_scipy():
    for call in (lambda: brentq(np.cos, 2.0, 3.0),
                 lambda: _brentq(np.cos, 2.0, 3.0, 1e-12, 1e-15)):
        with pytest.raises(ValueError, match="different signs"):
            call()
    with pytest.raises(RuntimeError) as theirs:
        brentq(np.cos, 0.0, 3.0, maxiter=2)
    with pytest.raises(RuntimeError) as ours:
        _brentq(np.cos, 0.0, 3.0, 2e-12, 4 * np.finfo(float).eps, maxiter=2)
    assert str(ours.value) == str(theirs.value)


def _scipy_dominant_frequency(times, values):
    """dominant_frequency as it was written on minimize_scalar."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.min() == values.max():
        return float("nan")
    n = len(times)
    windowed = (values - values.mean()) * np.hanning(n)
    peak = int(np.argmax(np.abs(np.fft.rfft(windowed))[1:])) + 1
    if peak == 1:
        return float("nan")
    bin_width = 2.0 * np.pi / (n * (times[1] - times[0]))
    seed = peak * bin_width

    def negative_projection(omega):
        return -abs(np.sum(windowed * np.exp(-1j * omega * times)))

    return float(minimize_scalar(
        negative_projection, bounds=(seed - bin_width, seed + bin_width),
        method="bounded", options={"xatol": bin_width * 1e-9}).x)


def test_dominant_frequency_equals_minimize_scalar():
    rng = np.random.default_rng(2024)
    nans = 0
    for i in range(320):
        n = int(rng.integers(8, 600))
        t = np.linspace(0.0, rng.uniform(1e-6, 1e-3), n)
        omega = rng.uniform(0.2, 40.0) * 2 * np.pi / t[-1]
        x = 10 ** rng.uniform(-9, 0) * np.cos(omega * t + rng.uniform(0, 6))
        if i % 4 == 1:
            x = x + rng.normal(0.0, 0.3, n) * np.abs(x).max()
        elif i % 4 == 2:
            x = x + 0.5 * np.cos(3.3 * omega * t)
        elif i % 8 == 3:
            x = np.full(n, x[0])    # motionless: NaN
        ours, theirs = dominant_frequency(t, x), _scipy_dominant_frequency(t, x)
        assert ours == theirs or (np.isnan(ours) and np.isnan(theirs)), i
        nans += np.isnan(ours)
    # motionless signals and those under about two cycles
    assert 40 < nans < 100


def test_bisect_port_equals_scipy():
    rng = np.random.default_rng(7)
    for i in range(300):
        c = rng.uniform(-0.9, 0.9)
        lo, hi = np.arctanh(c) - rng.uniform(0.01, 1), \
            np.arctanh(c) + rng.uniform(0.01, 1)
        f = (lambda x: np.tanh(x) - c) if i % 2 else (lambda x: c - x ** 3)
        if i % 2 == 0:
            lo, hi = -2.0, 2.0
        xtol = 10 ** rng.uniform(-15, -2)
        assert _bisect(f, lo, hi, xtol) == bisect(f, lo, hi, xtol=xtol), i
    for lo, hi in ((0.0, 1.0), (-1.0, 0.0)):    # a root at an end
        assert _bisect(np.sin, lo, hi, 1e-12) == bisect(np.sin, lo, hi,
                                                        xtol=1e-12) == 0.0


def test_bisect_port_refuses_where_scipy_does_not_converge():
    with pytest.raises(RuntimeError, match="Failed to converge"):
        bisect(np.cos, 0.0, 3.0, xtol=1e-12, maxiter=3)
    with pytest.raises(NoRoot, match="3 halvings"):
        _bisect(np.cos, 0.0, 3.0, 1e-12, maxiter=3)
