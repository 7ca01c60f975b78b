"""Domain types and Gaussian-beam field evaluation."""

import numpy as np
import pytest
from scipy.integrate import quad

from optrap import (IonSpecies, LaserBeam, TrapSetup, Transition,
                    field_amplitudes_at, intensity_at, intensity_gradient_at,
                    rabi_frequency_at)
from optrap.constants import CONST

from conftest import DETUNING, LINEWIDTH, WAIST, WAVELENGTH, make_reference_setup


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_ion_species_identities():
    ion = IonSpecies.from_amu(24.0, 1.0)
    assert ion.total_mass == pytest.approx(24.0 * CONST.atomic_mass_unit, rel=0)
    assert ion.core_mass == pytest.approx(ion.total_mass - CONST.m_electron,
                                          rel=0)
    # mu = m_e m_n / M and Q = q_n + q_e
    assert ion.reduced_mass == pytest.approx(
        CONST.m_electron * ion.core_mass / ion.total_mass, rel=1e-15)
    assert ion.core_charge + ion.valence_electron_charge == pytest.approx(
        ion.total_charge, rel=1e-15)


def test_ion_species_validation():
    with pytest.raises(ValueError):
        IonSpecies(total_mass=0.5 * CONST.m_electron)
    with pytest.raises(ValueError):
        IonSpecies(total_mass=1e-26, valence_electron_charge=+CONST.e_charge)


def test_transition_validation():
    with pytest.raises(ValueError):
        Transition(omega_eg=6.7e15, linewidth=1e13)  # Gamma/omega too large
    with pytest.raises(ValueError):
        Transition(omega_eg=-1.0, linewidth=1e8)


def test_beam_validation():
    with pytest.raises(ValueError):
        LaserBeam(wavelength=280e-9, waist_radius=100e-9, detuning=-1e12,
                  power=0.1)  # waist below wavelength
    with pytest.raises(ValueError):
        LaserBeam(wavelength=280e-9, waist_radius=7e-6, detuning=-1e12)


def test_setup_consistency_check():
    ion = IonSpecies.from_amu(24.0, 1.0)
    beam = LaserBeam(wavelength=WAVELENGTH, waist_radius=WAIST,
                     detuning=DETUNING, power=0.1)
    wrong = Transition(omega_eg=beam.omega_laser + 1e12, linewidth=LINEWIDTH)
    with pytest.raises(ValueError, match="inconsistent"):
        TrapSetup(ion=ion, transition=wrong, beam=beam)


# ---------------------------------------------------------------------------
# beam geometry
# ---------------------------------------------------------------------------

def test_beam_geometry_reference_values():
    beam = LaserBeam(wavelength=WAVELENGTH, waist_radius=WAIST,
                     detuning=DETUNING, power=0.1)
    # zR = pi w0^2 / lambda, evaluated by hand: 5.4978e-4 m
    assert beam.rayleigh_range == pytest.approx(
        np.pi * WAIST ** 2 / WAVELENGTH, rel=0)
    assert beam.rayleigh_range == pytest.approx(5.50e-4, rel=5e-3)
    assert beam.wavenumber == pytest.approx(2.244e7, rel=1e-3)
    assert beam.omega_laser == pytest.approx(6.727e15, rel=1e-3)
    # laser sits in the 2pi x 1e15 Hz decade
    assert 10 ** 14.5 < beam.omega_laser / (2 * np.pi) < 10 ** 15.5
    assert beam.spot_size(0.0) == WAIST
    assert beam.spot_size(beam.rayleigh_range) == pytest.approx(
        WAIST * np.sqrt(2.0), rel=1e-15)


# ---------------------------------------------------------------------------
# intensity profile
# ---------------------------------------------------------------------------

def test_intensity_peak_and_decay(mg_setup):
    beam = mg_setup.beam
    peak = intensity_at(beam, (0.0, 0.0, 0.0))
    assert peak == pytest.approx(2 * beam.power / (np.pi * WAIST ** 2),
                                 rel=1e-15)
    assert intensity_at(beam, (60 * WAIST, 0.0, 0.0)) < 1e-300
    # half the peak intensity one Rayleigh range downstream on axis
    half = intensity_at(beam, (0.0, 0.0, beam.rayleigh_range))
    assert half == pytest.approx(0.5 * peak, rel=1e-12)


def test_transverse_plane_power_recovered(mg_setup):
    # quadrature oracle: integrating I over any transverse plane returns P
    beam = mg_setup.beam
    for z in (0.0, 0.3 * beam.rayleigh_range, 2.0 * beam.rayleigh_range):
        w_here = beam.spot_size(z)
        total, _ = quad(
            lambda r: 2 * np.pi * r * intensity_at(
                beam, (r, 0.0, z)), 0.0, 12 * w_here, limit=200)
        assert total == pytest.approx(beam.power, rel=1e-6)


def test_intensity_gradient_matches_finite_differences(mg_setup):
    beam = mg_setup.beam
    rng = np.random.default_rng(7)
    h = WAIST * 1e-4
    zr = beam.rayleigh_range
    for _ in range(200):
        point = np.array([rng.uniform(-1.5, 1.5) * WAIST,
                          rng.uniform(-1.5, 1.5) * WAIST,
                          rng.uniform(-1.5, 1.5) * zr])
        grad = intensity_gradient_at(beam, point)
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            fd = (intensity_at(beam, point + step)
                  - intensity_at(beam, point - step)) / (2 * h)
            scale = max(abs(fd), intensity_at(beam, point) / WAIST * 1e-6)
            assert abs(grad[axis] - fd) / scale < 1e-6


def test_gradient_vectorized_shape(mg_setup):
    pts = np.zeros((5, 4, 3))
    pts[..., 0] = np.linspace(0, WAIST, 20).reshape(5, 4)
    grads = intensity_gradient_at(mg_setup.beam, pts)
    assert grads.shape == (5, 4, 3)


# ---------------------------------------------------------------------------
# fields, dipole, Rabi frequency
# ---------------------------------------------------------------------------

def test_field_amplitude_identities(mg_setup, focus):
    amps = field_amplitudes_at(mg_setup, focus)
    assert amps.electric == amps.magnetic * CONST.c
    assert amps.electric == pytest.approx(
        amps.vector_potential * mg_setup.beam.omega_laser, rel=1e-15)
    # independent chain: E = sqrt(2 I / eps0 c)
    inten = intensity_at(mg_setup.beam, focus)
    assert amps.electric == pytest.approx(
        np.sqrt(2 * inten / (CONST.eps0 * CONST.c)), rel=1e-15)
    # reference magnitudes for the 50 mK trap (hand-evaluated chain)
    assert amps.electric == pytest.approx(1.675262e6, rel=1e-5)
    assert amps.magnetic == pytest.approx(5.5e-3, rel=0.02)
    assert amps.vector_potential == pytest.approx(2.490234e-10, rel=1e-5)


def test_field_amplitude_scaling(mg_setup, focus):
    doubled = make_reference_setup(power=2.0 * mg_setup.beam.power)
    a1 = field_amplitudes_at(mg_setup, focus)
    a2 = field_amplitudes_at(doubled, focus)
    for field in ("electric", "magnetic", "vector_potential"):
        assert getattr(a2, field) == pytest.approx(
            np.sqrt(2.0) * getattr(a1, field), rel=1e-12)
    zero = field_amplitudes_at(make_reference_setup(power=0.0), focus)
    assert zero.electric == zero.magnetic == zero.vector_potential == 0.0


def test_dipole_from_linewidth(mg_setup):
    tr = mg_setup.transition
    d = tr.dipole_moment
    # hand evaluation of sqrt(3 pi eps0 hbar c^3 Gamma / omega_eg^3)
    expected = np.sqrt(3 * np.pi * CONST.eps0 * CONST.hbar * CONST.c ** 3
                       * tr.linewidth / tr.omega_eg ** 3)
    assert d == pytest.approx(expected, rel=0)
    assert d == pytest.approx(1.4e-29, rel=0.02)
    # Gamma x4 -> d x2
    stronger = Transition(omega_eg=tr.omega_eg, linewidth=4 * tr.linewidth)
    assert stronger.dipole_moment == pytest.approx(2 * d, rel=1e-12)
    # k r_char ~ 2e-3, the small multipole parameter
    kr = mg_setup.beam.wavenumber * tr.characteristic_size
    assert kr == pytest.approx(1.9587e-3, rel=1e-3)
    assert 1e-3 < kr < 1e-2


def test_rabi_frequency_reference(mg_setup, focus):
    omega = rabi_frequency_at(mg_setup, focus)
    # 2pi x 3.5e10 Hz, the published Rabi-scale decade
    assert omega == pytest.approx(2.2216e11, rel=1e-3)
    assert omega / (2 * np.pi) == pytest.approx(3.5e10, rel=0.15)
    assert rabi_frequency_at(make_reference_setup(power=0.0), focus) == 0.0


def test_rabi_neutral_equals_bare_dipole(neutral_setup, mg_setup, focus):
    # Q = 0 -> q_eff = |q_e| exactly; charged ion picks up m_e Q / M
    omega_neutral = rabi_frequency_at(neutral_setup, focus)
    d = neutral_setup.transition.dipole_moment
    e_amp = field_amplitudes_at(neutral_setup, focus).electric
    assert omega_neutral == pytest.approx(d * e_amp / CONST.hbar, rel=1e-15)
    boost = (mg_setup.effective_dipole_moment
             / mg_setup.transition.dipole_moment)
    m_ratio = CONST.m_electron / mg_setup.ion.total_mass
    assert boost == pytest.approx(1.0 + m_ratio, rel=1e-12)
