"""Saturation, potentials, mean force, scattering, trap summary."""

import numpy as np
import pytest

from optrap import (effective_potential_at, dipole_force_at, mean_force_at,
                    recoil_energy, saturation_at, scattering_rate_at,
                    trap_summary)
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
        from optrap import LaserBeam, setup_from_beam
        detuned = setup_from_beam(
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
    rng = np.random.default_rng(5)
    zr = mg_setup.beam.rayleigh_range
    for _ in range(50):
        pt = (rng.uniform(-1, 1) * WAIST, rng.uniform(-1, 1) * WAIST,
              rng.uniform(-1, 1) * zr)
        rate = scattering_rate_at(mg_setup, pt)
        s = saturation_at(mg_setup, pt)
        assert rate == pytest.approx(0.5 * LINEWIDTH * s, rel=1e-14)
        # Eq-structure identity: Gamma_sc / (|V|/hbar) = Gamma/|delta|
        v = effective_potential_at(mg_setup, pt, mode="low_sat")
        if v != 0.0:
            assert rate / (abs(v) / CONST.hbar) == pytest.approx(
                LINEWIDTH / abs(DETUNING), rel=1e-12)


def test_scattering_rate_reference(mg_setup):
    rate = scattering_rate_at(mg_setup, FOCUS)
    assert rate == pytest.approx(8.728e5, rel=1e-3)
    assert scattering_rate_at(make_reference_setup(power=0.0), FOCUS) == 0.0


def test_scattering_high_saturation_warning():
    hot = make_reference_setup(power=100.0)  # s0 ~ 2.4 > 0.1
    with pytest.warns(SaturationValidityWarning):
        scattering_rate_at(hot, FOCUS)


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
    from optrap import LaserBeam, setup_from_beam
    beam = LaserBeam(wavelength=WAVELENGTH, waist_radius=WAIST,
                     detuning=-DETUNING, power=0.1)
    setup = setup_from_beam(blue.ion, beam, LINEWIDTH)
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
    from optrap import LaserBeam, setup_from_beam
    from optrap.model import intensity_gradient_at

    def fresh(setup, pos, mode):
        scale = saturation_at(setup, FOCUS) / setup.beam.focus_intensity
        grad_s = scale * intensity_gradient_at(setup.beam, pos)
        half = 0.5 * CONST.hbar * setup.beam.detuning
        if mode == "low_sat":
            return -half * grad_s
        return -half / (1.0 + saturation_at(setup, pos))[..., np.newaxis] * grad_s

    near = make_reference_setup()
    far = setup_from_beam(near.ion, LaserBeam(
        wavelength=WAVELENGTH, waist_radius=WAIST, detuning=2.0 * DETUNING,
        power=near.beam.power), LINEWIDTH)
    positions = [(3e-6, -1e-6, 2e-5),
                 np.array([[1e-6, 0.0, 0.0], [0.0, 2e-6, -1e-5]])]
    for setup in (near, far, near, far, far, near):
        for pos in positions:
            for mode in ("low_sat", "exact_log"):
                assert np.array_equal(dipole_force_at(setup, pos, mode=mode),
                                      fresh(setup, pos, mode))
