"""Saturation, potentials, mean force, scattering, trap summary."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from optrap import (effective_potential_at, dipole_force_at, mean_force_at,
                    recoil_energy, saturation_at, trap_summary)
from optrap.constants import CONST
from optrap.errors import BlueDetunedUnsupported, SaturationValidityWarning

from conftest import (DEPTH, DETUNING, LINEWIDTH, WAIST, WAVELENGTH,
                      make_reference_setup)

FOCUS = (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------

def test_saturation_reference_value(mg_setup):
    # independent oracle: the depth anchor gives s0 = 2 U0 / (hbar |delta|)
    s0 = saturation_at(mg_setup, FOCUS)
    assert s0 == pytest.approx(2 * DEPTH / (CONST.hbar * abs(DETUNING)),
                               rel=1e-12)
    assert s0 == pytest.approx(6.8e-3, rel=0.03)
    assert saturation_at(make_reference_setup(power=0.0), FOCUS) == 0.0


def test_saturation_monotone_in_detuning(mg_setup, focus):
    # |delta| -> infinity sends s -> 0 monotonically at fixed intensity
    values = []
    for scale in (1.0, 3.0, 10.0, 100.0):
        setup = make_reference_setup()
        beam = setup.beam
        from optrap import LaserBeam, TrapSetup
        detuned = TrapSetup(
            setup.ion,
            LaserBeam(wavelength=beam.wavelength, waist_radius=beam.waist_radius,
                      detuning=DETUNING * scale, power=beam.power),
            LINEWIDTH)
        values.append(saturation_at(detuned, focus))
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-4 * values[0]


# ---------------------------------------------------------------------------
# effective potential
# ---------------------------------------------------------------------------

def test_depth_reference(mg_setup):
    v = effective_potential_at(mg_setup, FOCUS, mode="low_sat")
    assert v < 0  # red detuned
    assert abs(v) == pytest.approx(DEPTH, rel=1e-12)
    assert abs(v) / CONST.hbar / (2 * np.pi) == pytest.approx(1.0e9, rel=0.1)


def test_potential_zero_without_light(focus):
    dark = make_reference_setup(power=0.0)
    assert effective_potential_at(dark, focus, mode="low_sat") == 0.0
    assert effective_potential_at(dark, focus, mode="exact_log") == 0.0


def test_low_sat_vs_exact_log_taylor(mg_setup):
    # ln(1+s) = s (1 - s/2 + O(s^2)): relative gap s/2 = 0.35% at s0
    s0 = saturation_at(mg_setup, FOCUS)
    low = effective_potential_at(mg_setup, FOCUS, mode="low_sat")
    log = effective_potential_at(mg_setup, FOCUS, mode="exact_log")
    gap = (low - log) / low
    assert gap == pytest.approx(s0 / 2, rel=0.01)
    assert gap == pytest.approx(0.0035, abs=0.0005)


def test_global_minimum_at_focus(mg_setup):
    rng = np.random.default_rng(3)
    v0 = effective_potential_at(mg_setup, FOCUS, mode="low_sat")
    zr = mg_setup.beam.rayleigh_range
    pts = np.stack([rng.uniform(-2, 2, 500) * WAIST,
                    rng.uniform(-2, 2, 500) * WAIST,
                    rng.uniform(-2, 2, 500) * zr], axis=-1)
    values = effective_potential_at(mg_setup, pts, mode="low_sat")
    assert np.all(values >= v0)


# ---------------------------------------------------------------------------
# mean force
# ---------------------------------------------------------------------------

def test_force_decomposition_at_focus(mg_setup):
    force = mean_force_at(mg_setup, FOCUS)
    # intensity extremum: dipole force vanishes, radiation pressure forward
    assert np.allclose(force.dipolar, 0.0, atol=1e-30)
    assert force.radiation_pressure[2] > 0
    assert force.radiation_pressure[0] == force.radiation_pressure[1] == 0.0
    # (hbar Gamma / 2) (s0/(1+s0)) k, hand-evaluated: 2.051e-21 N
    s0 = saturation_at(mg_setup, FOCUS)
    expected = (0.5 * CONST.hbar * LINEWIDTH * s0 / (1 + s0)
                * mg_setup.beam.wavenumber)
    assert force.radiation_pressure[2] == pytest.approx(expected, rel=1e-12)
    assert force.radiation_pressure[2] == pytest.approx(2.051e-21, rel=1e-3)


def test_mean_force_dipolar_part_follows_mode(mg_setup):
    # in either mode the dipolar part is dipole_force_at's, bit for bit,
    # and the radiation pressure does not depend on the mode
    rng = np.random.default_rng(17)
    scale = np.array([WAIST, WAIST, mg_setup.beam.rayleigh_range])
    pts = rng.uniform(-1.5, 1.5, (64, 3)) * scale
    for pos in (pts[0], pts):
        forces = {mode: mean_force_at(mg_setup, pos, mode=mode)
                  for mode in ("low_sat", "exact_log")}
        for mode, force in forces.items():
            expected = dipole_force_at(mg_setup, pos, mode=mode)
            assert force.dipolar.shape == expected.shape
            assert force.dipolar.tobytes() == expected.tobytes(), mode
        assert (forces["low_sat"].radiation_pressure.tobytes()
                == forces["exact_log"].radiation_pressure.tobytes())


@pytest.mark.parametrize("function", [mean_force_at, dipole_force_at,
                                      effective_potential_at])
def test_unknown_mode_raises(mg_setup, function):
    with pytest.raises(ValueError, match="unknown potential mode: 'exactlog'"):
        function(mg_setup, FOCUS, mode="exactlog")


def test_dipolar_force_is_gradient_of_log_potential(mg_setup):
    # -grad V(exact_log) vs the dipolar component, 1e4 random points
    rng = np.random.default_rng(11)
    zr = mg_setup.beam.rayleigh_range
    n = 10_000
    pts = np.stack([rng.uniform(-1.5, 1.5, n) * WAIST,
                    rng.uniform(-1.5, 1.5, n) * WAIST,
                    rng.uniform(-1.5, 1.5, n) * zr], axis=-1)
    analytic = mean_force_at(mg_setup, pts).dipolar
    h = WAIST * 1e-4
    fd = np.empty_like(analytic)
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        fd[:, axis] = -(effective_potential_at(mg_setup, pts + step,
                                               mode="exact_log")
                        - effective_potential_at(mg_setup, pts - step,
                                                 mode="exact_log")) / (2 * h)
    scale = np.linalg.norm(fd, axis=-1) + 1e-9 * np.max(np.abs(fd))
    err = np.linalg.norm(analytic - fd, axis=-1) / scale
    assert err.max() < 1e-6


def test_dipolar_force_gradient_tight(mg_setup):
    # 1e-8 agreement needs a cancellation-free derivative: complex-step
    # differentiation of an independently written potential formula
    from optrap.constants import CONST
    zr_val = np.pi * WAIST ** 2 / WAVELENGTH
    s0 = 2 * DEPTH / (CONST.hbar * abs(DETUNING))

    def potential(x, y, z):
        w2 = WAIST ** 2 * (1.0 + (z / zr_val) ** 2)
        s = s0 * (WAIST ** 2 / w2) * np.exp(-2.0 * (x * x + y * y) / w2)
        return 0.5 * CONST.hbar * DETUNING * np.log1p(s)

    rng = np.random.default_rng(13)
    n = 10_000
    pts = np.stack([rng.uniform(-1.2, 1.2, n) * WAIST,
                    rng.uniform(-1.2, 1.2, n) * WAIST,
                    rng.uniform(-1.2, 1.2, n) * zr_val], axis=-1)
    analytic = mean_force_at(mg_setup, pts).dipolar

    grad = np.empty_like(analytic)
    for axis in range(3):
        h = (WAIST if axis < 2 else zr_val) * 1e-40
        args = [pts[:, 0].astype(complex), pts[:, 1].astype(complex),
                pts[:, 2].astype(complex)]
        args[axis] = args[axis] + 1j * h
        grad[:, axis] = -np.imag(potential(*args)) / h
    scale = np.linalg.norm(grad, axis=-1) + 1e-6 * np.max(np.abs(grad))
    err = np.linalg.norm(analytic - grad, axis=-1) / scale
    assert err.max() < 1e-8


def test_low_sat_force_is_gradient_of_low_sat_potential(mg_setup):
    rng = np.random.default_rng(12)
    zr = mg_setup.beam.rayleigh_range
    pts = np.stack([rng.uniform(-1, 1, 100) * WAIST,
                    rng.uniform(-1, 1, 100) * WAIST,
                    rng.uniform(-1, 1, 100) * zr], axis=-1)
    analytic = dipole_force_at(mg_setup, pts, mode="low_sat")
    h = WAIST * 1e-4
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        fd = -(effective_potential_at(mg_setup, pts + step, mode="low_sat")
               - effective_potential_at(mg_setup, pts - step, mode="low_sat")
               ) / (2 * h)
        scale = np.abs(fd).max()
        assert np.abs(analytic[:, axis] - fd).max() / scale < 1e-6


# ---------------------------------------------------------------------------
# scattering rate
# ---------------------------------------------------------------------------

def test_scattering_rate_identity(mg_setup):
    summary = trap_summary(mg_setup)
    rate = summary.scattering_rate_at_focus
    s0 = saturation_at(mg_setup, FOCUS)
    assert rate == pytest.approx(0.5 * LINEWIDTH * s0, rel=1e-14)
    # Eq-structure identity: Gamma_sc / (U0/hbar) = Gamma/|delta|
    assert rate / (summary.depth / CONST.hbar) == pytest.approx(
        LINEWIDTH / abs(DETUNING), rel=1e-12)


def test_scattering_rate_reference(mg_setup):
    rate = trap_summary(mg_setup).scattering_rate_at_focus
    assert rate == pytest.approx(8.728e5, rel=1e-3)
    dark = make_reference_setup(power=0.0)
    assert trap_summary(dark).scattering_rate_at_focus == 0.0


def test_scattering_high_saturation_warning():
    hot = make_reference_setup(power=100.0)  # s0 ~ 2.4 > 0.1
    with pytest.warns(SaturationValidityWarning):
        trap_summary(hot)


# ---------------------------------------------------------------------------
# trap summary
# ---------------------------------------------------------------------------

def test_trap_frequencies_reference(mg_setup):
    summary = trap_summary(mg_setup)
    mass = mg_setup.ion.total_mass
    zr = mg_setup.beam.rayleigh_range
    assert summary.optical_trap_frequencies[0] == pytest.approx(
        np.sqrt(4 * DEPTH / (mass * WAIST ** 2)), rel=1e-12)
    assert summary.optical_trap_frequencies[2] == pytest.approx(
        np.sqrt(2 * DEPTH / (mass * zr ** 2)), rel=1e-12)
    # published values: ~2pi x 200 kHz radial, ~2pi x 2 kHz axial
    assert summary.optical_trap_frequencies[0] / (2 * np.pi) == pytest.approx(
        190e3, rel=0.01)
    assert summary.optical_trap_frequencies[2] / (2 * np.pi) == pytest.approx(
        1.70e3, rel=0.01)


def test_hessian_frequencies_match_finite_differences(mg_setup):
    # numerical second derivatives of the low-sat potential at the focus,
    # Richardson-extrapolated to kill the O(h^2) truncation term
    summary = trap_summary(mg_setup)
    mass = mg_setup.ion.total_mass
    v0 = effective_potential_at(mg_setup, FOCUS, mode="low_sat")

    def second_difference(axis, h):
        step = np.zeros(3)
        step[axis] = h
        return (effective_potential_at(mg_setup, step, mode="low_sat")
                - 2 * v0
                + effective_potential_at(mg_setup, -step, mode="low_sat")
                ) / h ** 2

    for axis, omega in ((0, summary.optical_trap_frequencies[0]),
                        (2, summary.optical_trap_frequencies[2])):
        h = (WAIST if axis == 0 else mg_setup.beam.rayleigh_range) * 1e-3
        curvature = (4 * second_difference(axis, h / 2)
                     - second_difference(axis, h)) / 3
        assert np.sqrt(curvature / mass) == pytest.approx(omega, rel=1e-6)


def test_recoil_and_temperature_scales(mg_setup):
    summary = trap_summary(mg_setup)
    assert summary.recoil_energy == pytest.approx(recoil_energy(mg_setup),
                                                  rel=0)
    assert summary.recoil_energy / CONST.hbar / (2 * np.pi) == pytest.approx(
        1.06e5, rel=0.01)
    # hbar omega / kB for 2pi x 100 kHz is 4.8 uK
    omega_ref = 2 * np.pi * 1e5
    assert CONST.hbar * omega_ref / CONST.kB == pytest.approx(4.8e-6,
                                                              rel=0.01)


def test_hierarchy_ordering(mg_setup):
    names = [name for name, _ in trap_summary(mg_setup).hierarchy]
    assert names == ["recoil", "omega0", "linewidth", "depth_rate", "rabi",
                     "abs_detuning", "omega_laser", "omega_transition"]
    values = [v for _, v in trap_summary(mg_setup).hierarchy]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_blue_detuning_rejected():
    blue = make_reference_setup()
    from optrap import LaserBeam, TrapSetup
    beam = LaserBeam(wavelength=WAVELENGTH, waist_radius=WAIST,
                     detuning=-DETUNING, power=0.1)
    setup = TrapSetup(blue.ion, beam, LINEWIDTH)
    with pytest.raises(BlueDetunedUnsupported):
        trap_summary(setup)
    # pointwise operations still work
    assert saturation_at(setup, FOCUS) > 0


def test_anticonfined_axis_reported_not_fatal():
    # static curvature strong enough to cancel the weak axial confinement
    axial = trap_summary(make_reference_setup()).optical_trap_frequencies[2]
    setup = make_reference_setup(static=(0.0, 0.0, -(2 * axial) ** 2))
    summary = trap_summary(setup)
    assert summary.anticonfined_axes == (2,)
    assert np.isnan(summary.combined_trap_frequencies[2])
    assert np.isfinite(summary.combined_trap_frequencies[0])


def test_static_curvature_combines_in_quadrature():
    curv = (2 * np.pi * 45e3) ** 2
    setup = make_reference_setup(static=(0.0, 0.0, curv))
    summary = trap_summary(setup)
    base = trap_summary(make_reference_setup())
    expected = np.sqrt(base.optical_trap_frequencies[2] ** 2 + curv)
    assert summary.combined_trap_frequencies[2] == pytest.approx(expected,
                                                                 rel=1e-12)


def test_power_linearity(mg_setup):
    # U0, Gamma_sc and omega^2 all scale linearly with beam power
    double = make_reference_setup(power=2 * mg_setup.beam.power)
    s1 = trap_summary(mg_setup)
    s2 = trap_summary(double)
    assert s2.depth == pytest.approx(2 * s1.depth, rel=1e-12)
    assert s2.scattering_rate_at_focus == pytest.approx(
        2 * s1.scattering_rate_at_focus, rel=1e-12)
    assert s2.optical_trap_frequencies[0] ** 2 == pytest.approx(
        2 * s1.optical_trap_frequencies[0] ** 2, rel=1e-12)


def test_saturation_scale_does_not_leak_across_setups():
    # the per-setup s0/I0 is cached; alternating two setups that differ
    # only in detuning must give each one the force evaluated from scratch
    from optrap import LaserBeam, TrapSetup
    from optrap.model import intensity_gradient_at

    def fresh(setup, pos, mode):
        scale = saturation_at(setup, FOCUS) / setup.beam.focus_intensity
        grad_s = scale * intensity_gradient_at(setup.beam, pos)
        half = 0.5 * CONST.hbar * setup.beam.detuning
        if mode == "low_sat":
            return -half * grad_s
        return -half / (1.0 + saturation_at(setup, pos))[..., np.newaxis] * grad_s

    near = make_reference_setup()
    far = TrapSetup(near.ion, LaserBeam(
        wavelength=WAVELENGTH, waist_radius=WAIST, detuning=2.0 * DETUNING,
        power=near.beam.power), LINEWIDTH)
    positions = [(3e-6, -1e-6, 2e-5),
                 np.array([[1e-6, 0.0, 0.0], [0.0, 2e-6, -1e-5]])]
    for setup in (near, far, near, far, far, near):
        for pos in positions:
            for mode in ("low_sat", "exact_log"):
                assert np.array_equal(dipole_force_at(setup, pos, mode=mode),
                                      fresh(setup, pos, mode))


def test_dark_beam_exerts_no_force():
    # a dark beam has s0 = I0 = 0; its s0/I0 counts as 0, not 0/0
    dark = make_reference_setup(power=0.0)
    pts = np.array([FOCUS, (1e-6, -2e-6, 3e-5), (0.0, 0.0, -1e-4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in ("low_sat", "exact_log"):
            assert np.all(dipole_force_at(dark, pts, mode=mode) == 0.0)
        assert np.all(mean_force_at(dark, pts).total == 0.0)


def test_one_point_and_a_batch_give_the_same_bits(mg_setup):
    # one code path: each row of an (n, 3) or (a, b, 3) evaluation equals
    # the evaluation at that point alone, exactly (a float64 scalar's ** 2
    # is libm's pow, which an array's x*x does not always match)
    from optrap.model import intensity_at, intensity_gradient_at
    setup = mg_setup
    rng = np.random.default_rng(7)
    scale = np.array([WAIST, WAIST, setup.beam.rayleigh_range])
    pts = (rng.normal(size=(10_000, 3)) * scale
           * rng.choice([1e-3, 0.1, 1.0, 3.0], size=(10_000, 1)))
    pts[:3] = [FOCUS, (-0.0, 0.0, -0.0), (0.0, 0.0, 1e-5)]
    evaluations = {
        "intensity": lambda p: intensity_at(setup.beam, p),
        "gradient": lambda p: intensity_gradient_at(setup.beam, p),
        "low_sat": lambda p: dipole_force_at(setup, p, mode="low_sat"),
        "exact_log": lambda p: dipole_force_at(setup, p, mode="exact_log"),
        "dipolar": lambda p: mean_force_at(setup, p).dipolar,
        "radiation": lambda p: mean_force_at(setup, p).radiation_pressure,
    }
    for name, evaluate in evaluations.items():
        one = np.array([evaluate(p) for p in pts])
        batch = evaluate(pts)
        grid = evaluate(pts.reshape(100, 100, 3))
        assert batch.shape == one.shape, name
        assert grid.shape == (100, 100) + one.shape[1:], name
        assert np.all(batch == one), name
        assert np.all(grid.reshape(one.shape) == one), name


@pytest.mark.parametrize("point", [(1e-6, -2e-6, 3e-5),
                                   np.full((4, 2, 3), 1e-6)])
@pytest.mark.parametrize("evaluate", [
    lambda setup, p: dipole_force_at(setup, p, mode="low_sat"),
    lambda setup, p: dipole_force_at(setup, p, mode="exact_log"),
    lambda setup, p: mean_force_at(setup, p, mode="low_sat"),
    lambda setup, p: mean_force_at(setup, p, mode="exact_log"),
], ids=["dipole-low_sat", "dipole-exact_log", "mean-low_sat",
        "mean-exact_log"])
def test_one_profile_per_force_call(mg_setup, monkeypatch, evaluate, point):
    # s and grad s share one (r^2, w(z)^2, I), through the traced public
    # intensity_gradient_at
    from optrap import dipole_trap, model
    calls = {"profile": 0, "gradient": 0}
    profile, gradient = model._gaussian_profile, model.intensity_gradient_at

    def counted_profile(*args):
        calls["profile"] += 1
        return profile(*args)

    def counted_gradient(*args, **kwargs):
        calls["gradient"] += 1
        return gradient(*args, **kwargs)
    monkeypatch.setattr(model, "_gaussian_profile", counted_profile)
    monkeypatch.setattr(dipole_trap, "intensity_gradient_at", counted_gradient)
    evaluate(mg_setup, point)
    assert calls == {"profile": 1, "gradient": 1}


@pytest.mark.parametrize("mode", ["low_sat", "exact_log"])
@pytest.mark.parametrize("radiation", [True, False])
def test_secular_rhs_repeats_the_public_force_bits(mode, radiation):
    # the full-mode kernel takes the public functions' operations in their
    # order on floats: wherever libm's exp and numpy's agree on the profile's
    # argument its bits are theirs, and elsewhere the exp ulp moves it by at
    # most a few ulps
    import math
    from optrap.dipole_trap import secular_rhs
    from optrap.model import _gaussian_profile
    setup = make_reference_setup(static=(1e10, 2e10, 3e10))
    rhs = secular_rhs(setup, mode, radiation)
    mass = setup.ion.total_mass
    stiffness = -mass * np.asarray(setup.static_curvatures)
    rng = np.random.default_rng(5)
    scale = np.array([WAIST, WAIST, setup.beam.rayleigh_range])
    agree = 0
    for pos in rng.normal(size=(2000, 3)) * scale:
        y = np.concatenate([pos, rng.normal(size=3)])
        force = (mean_force_at(setup, pos, mode=mode).total if radiation
                 else dipole_force_at(setup, pos, mode=mode))
        expected = np.concatenate([y[3:], (force + stiffness * pos) / mass])
        got = rhs(0.0, y)
        r2, w2, _ = _gaussian_profile(setup.beam, *pos)
        if np.exp(-2.0 * r2 / w2) == math.exp(-2.0 * r2 / w2):
            agree += 1
            assert np.array_equal(got, expected), pos
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)
    assert agree > 1000


# ---------------------------------------------------------------------------
# the focus field chain runs once per setup
# ---------------------------------------------------------------------------

@pytest.fixture()
def field_calls(monkeypatch):
    """Counts the FieldAmplitudes records the focus chain builds (one per
    evaluation of the chain), through model.FieldAmplitudes."""
    from optrap import model
    original = model.FieldAmplitudes
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)
    monkeypatch.setattr(model, "FieldAmplitudes", counted)
    return calls


def test_focus_quantities_reuse_the_kept_saturation(field_calls):
    from optrap import trap_depth
    from optrap.dipole_trap import secular_curvatures
    from optrap.config import check_full_span
    setup = make_reference_setup(static=(0.0, 0.0, (2 * np.pi * 1e5) ** 2))
    trap_summary(setup)
    assert len(field_calls) == 1
    field_calls.clear()
    trap_depth(setup)
    secular_curvatures(setup)
    check_full_span(setup, 1e-3)
    saturation_at(setup, (1e-6, 0.0, 1e-5))
    dipole_force_at(setup, (1e-6, 0.0, 1e-5))
    trap_summary(setup)                 # its Rabi frequency is kept too
    assert len(field_calls) == 0


def test_report_runs_the_field_chain_once(field_calls):
    from optrap.config import load_config
    from optrap.reporting import build_report
    parsed = load_config(Path(__file__).resolve().parent.parent
                         / "demos" / "mg24.json")
    field_calls.clear()
    build_report(parsed)
    assert len(field_calls) == 1
