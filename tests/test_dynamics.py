"""Trajectory integration, the driven oscillator, equilibrium shift."""

from pathlib import Path

import numpy as np
import pytest

from optrap import (DrivenOscillatorSpec, analytic_driven_solution,
                    dominant_frequency, equilibrium_shift,
                    exact_driven_position, integrate_driven, integrate_full,
                    mean_force_at, monopole_drive, steady_drive_amplitude,
                    trap_summary)
from optrap.errors import (EscapedTrap, InitialConditionWarning, NoRoot,
                           Resonance, UnreachableScale)

from conftest import WAIST, make_reference_setup


def reduced_linewidth_setup(factor=0.1):
    """Reference trap with Gamma scaled down; same depth and detuning.

    Lower Gamma weakens radiation pressure without touching the potential
    (the depth is re-anchored through the power), giving an axially
    stable purely optical configuration for equilibrium tests.
    """
    from optrap import IonSpecies, LaserBeam, power_for_depth, setup_from_beam
    from conftest import DEPTH, DETUNING, LINEWIDTH, MASS_U, WAVELENGTH

    ion = IonSpecies.from_amu(MASS_U, 1.0)
    gamma = LINEWIDTH * factor
    probe = LaserBeam(wavelength=WAVELENGTH, waist_radius=WAIST,
                      detuning=DETUNING, power=1.0)
    power = power_for_depth(setup_from_beam(ion, probe, gamma), DEPTH)
    beam = LaserBeam(wavelength=WAVELENGTH, waist_radius=WAIST,
                     detuning=DETUNING, power=power)
    return setup_from_beam(ion, beam, gamma)


# ---------------------------------------------------------------------------
# full trap trajectories
# ---------------------------------------------------------------------------

def test_focus_is_fixed_point(mg_setup):
    period = 2 * np.pi / trap_summary(mg_setup).optical_trap_frequencies[0]
    record = integrate_full(mg_setup, ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                            5 * period, include_radiation_pressure=False,
                            samples=101)
    assert np.max(np.abs(record.positions)) < 1e-15 * WAIST


def test_radial_frequency_matches_hessian(mg_setup):
    # low-sat force paired with the low-sat Hessian frequency
    summary = trap_summary(mg_setup)
    omega_r = summary.optical_trap_frequencies[0]
    period = 2 * np.pi / omega_r
    record = integrate_full(mg_setup, ((0.01 * WAIST, 0.0, 0.0), (0, 0, 0)),
                            256 * period, include_radiation_pressure=False,
                            force_model="low_sat", samples=16385)
    freq = dominant_frequency(record.times, record.positions[:, 0])
    assert freq == pytest.approx(omega_r, rel=1e-3)
    # the log-form force softens the curvature by exactly 1/(1+s0)
    record_log = integrate_full(mg_setup, ((0.01 * WAIST, 0, 0), (0, 0, 0)),
                                256 * period,
                                include_radiation_pressure=False,
                                force_model="exact_log", samples=16385)
    freq_log = dominant_frequency(record_log.times, record_log.positions[:, 0])
    s0 = summary.saturation_at_focus
    assert freq_log == pytest.approx(omega_r / np.sqrt(1 + s0), rel=1e-3)


def test_energy_conservation_long_run(mg_setup):
    omega_r = trap_summary(mg_setup).optical_trap_frequencies[0]
    period = 2 * np.pi / omega_r
    record = integrate_full(mg_setup, ((0.01 * WAIST, 0.0, 0.0), (0, 0, 0)),
                            1000 * period, include_radiation_pressure=False,
                            samples=2001)
    drift = np.max(np.abs(record.total_energy - record.total_energy[0]))
    assert drift / abs(record.total_energy[0]) < 1e-8


def test_amplitude_convergence_to_hessian(mg_setup):
    # anharmonic shift scales as amplitude^2 (factor-4 per halving) and
    # Richardson extrapolation lands on the Hessian frequency
    omega_r = trap_summary(mg_setup).optical_trap_frequencies[0]
    period = 2 * np.pi / omega_r
    deviations = []
    for amp in (0.02, 0.01, 0.005):
        record = integrate_full(mg_setup, ((amp * WAIST, 0, 0), (0, 0, 0)),
                                512 * period,
                                include_radiation_pressure=False,
                                force_model="low_sat", samples=32769)
        freq = dominant_frequency(record.times, record.positions[:, 0])
        deviations.append((freq - omega_r) / omega_r)
    deviations = np.array(deviations)
    assert deviations[0] / deviations[1] == pytest.approx(4.0, abs=0.3)
    assert deviations[1] / deviations[2] == pytest.approx(4.0, abs=0.3)
    extrapolated = deviations[2] - (deviations[1] - deviations[2]) / 3
    assert abs(extrapolated) < 5e-6
    # transverse quartic term of the Gaussian: shift = -3/4 (amp/w0)^2
    assert deviations[1] == pytest.approx(-0.75 * 0.01 ** 2, rel=0.05)


def test_equilibrium_fixed_point_with_radiation_pressure():
    setup = reduced_linewidth_setup()
    shift = equilibrium_shift(setup)
    omega_ax = trap_summary(setup).optical_trap_frequencies[2]
    period = 2 * np.pi / omega_ax
    record = integrate_full(setup, ((0.0, 0.0, shift), (0.0, 0.0, 0.0)),
                            3 * period, samples=301)
    assert np.max(np.abs(record.positions[:, 2] - shift)) < 0.01 * shift


def test_escape_raises(mg_setup):
    # radiation pressure overwhelms the weak axial optical restoring
    # force in the reference trap: the ion leaves along the beam
    with pytest.raises(EscapedTrap):
        integrate_full(mg_setup, ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                       5e-3, samples=201)


def test_initial_condition_warning(mg_setup):
    # 6 waists out transversally: optical force is negligible there
    with pytest.warns(InitialConditionWarning):
        integrate_full(mg_setup, ((6 * WAIST, 0, 0), (0, 0, 0)),
                       1e-6, include_radiation_pressure=False, samples=11)


def test_trajectory_record_validation(mg_setup):
    record = integrate_full(mg_setup, ((0.01 * WAIST, 0, 0), (0, 0, 0)),
                            1e-5, include_radiation_pressure=False,
                            samples=64)
    assert len(record.times) == 64
    assert record.metadata["integrator"] == "RK45"
    text = record.to_csv_text()
    lines = text.splitlines()
    assert lines[0] == "t,x,y,z,vx,vy,vz,E_kin,E_pot,E_tot"
    assert len(lines) == 65


# ---------------------------------------------------------------------------
# driven oscillator
# ---------------------------------------------------------------------------

def make_spec(ratio, x0=None, v0=0.0, omega0=2 * np.pi * 1e5):
    from optrap.constants import CONST
    mass = 24 * CONST.atomic_mass_unit
    spec = DrivenOscillatorSpec(
        omega0=omega0, drive_frequency=ratio * omega0,
        charge=CONST.e_charge, field_amplitude=1e6, mass=mass,
        x0=0.0 if x0 is None else x0, v0=v0)
    return spec


def on_steady_state(ratio):
    """Spec starting exactly on the particular solution (no transient)."""
    probe = make_spec(ratio)
    amp = analytic_driven_solution(probe).steady_amplitude
    return make_spec(ratio, x0=-amp)


@pytest.mark.parametrize("ratio", [10.0, 100.0, 1000.0])
def test_driven_matches_closed_form(ratio):
    # generic initial conditions: both secular and drive tones present
    base = analytic_driven_solution(make_spec(ratio)).steady_amplitude
    spec = make_spec(ratio, x0=1.7 * base, v0=0.3 * base * spec_omega0())
    record = integrate_driven(spec, drive_periods=64)
    exact = exact_driven_position(spec, record.times)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(record.positions[:, 0] - exact)) / scale < 1e-6


def spec_omega0():
    return 2 * np.pi * 1e5


@pytest.mark.parametrize("ratio", [10.0, 100.0, 1000.0])
def test_driven_steady_amplitude(ratio):
    spec = on_steady_state(ratio)
    record = integrate_driven(spec, drive_periods=64)
    numeric = steady_drive_amplitude(record, spec.drive_frequency)
    exact = analytic_driven_solution(spec).steady_amplitude
    assert numeric == pytest.approx(exact, rel=1e-6)


def test_driven_amplitude_scaling_exponent():
    # amplitude relative to the static response falls as (w0/w_d)^2
    ratios = np.array([10.0, 100.0, 1000.0])
    rel_amps = []
    for ratio in ratios:
        spec = on_steady_state(ratio)
        record = integrate_driven(spec, drive_periods=64)
        amp = abs(steady_drive_amplitude(record, spec.drive_frequency))
        static = abs(spec.charge) * spec.field_amplitude / (
            spec.mass * spec.omega0 ** 2)
        rel_amps.append(amp / static)
    slope = np.polyfit(np.log(1.0 / ratios), np.log(rel_amps), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.02)


def test_driven_free_energy_conservation():
    # Q = 0: free harmonic motion over 1e3 secular periods
    from optrap.constants import CONST
    spec = DrivenOscillatorSpec(
        omega0=2 * np.pi * 1e5, drive_frequency=2 * np.pi * 1e6,
        charge=0.0, field_amplitude=1e6, mass=24 * CONST.atomic_mass_unit,
        x0=1e-9, v0=0.0)
    periods = 1000
    record = integrate_driven(spec, t_end=periods * 2 * np.pi / spec.omega0,
                              steps_per_period=64, sample_every=64)
    energy = record.total_energy
    assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-9


def test_drive_kinetic_energy_vs_monopole(mg_setup):
    # at the physical drive (w_d = omega_L >> w0) the steady-state mean
    # kinetic energy is exactly half the (QA)^2/2M monopole energy scale
    from optrap import field_amplitudes_at
    amps = field_amplitudes_at(mg_setup, (0.0, 0.0, 0.0))
    omega_l = mg_setup.beam.omega_laser
    omega0 = trap_summary(mg_setup).optical_trap_frequencies[0]
    spec = DrivenOscillatorSpec(
        omega0=omega0, drive_frequency=omega_l,
        charge=mg_setup.ion.total_charge, field_amplitude=amps.electric,
        mass=mg_setup.ion.total_mass)
    with pytest.raises(UnreachableScale):
        integrate_driven(spec, drive_periods=1)
    solution = analytic_driven_solution(spec)
    mono = monopole_drive(mg_setup)
    assert solution.drive_kinetic_energy == pytest.approx(
        mono.drive_energy / 2, rel=1e-9)
    # amplitude ~ QE/(M w_L^2): hand evaluation gives 1.49e-19 m
    assert abs(solution.steady_amplitude) == pytest.approx(1.488e-19,
                                                           rel=1e-3)
    # drive kinetic energy scales with the squared field amplitude
    doubled_field = DrivenOscillatorSpec(
        omega0=omega0, drive_frequency=omega_l,
        charge=mg_setup.ion.total_charge,
        field_amplitude=2 * amps.electric, mass=mg_setup.ion.total_mass)
    assert analytic_driven_solution(doubled_field).drive_kinetic_energy \
        == pytest.approx(4 * solution.drive_kinetic_energy, rel=1e-12)


def test_driven_zero_field():
    spec = make_spec(10.0)
    spec = DrivenOscillatorSpec(
        omega0=spec.omega0, drive_frequency=spec.drive_frequency,
        charge=spec.charge, field_amplitude=0.0, mass=spec.mass)
    assert analytic_driven_solution(spec).steady_amplitude == 0.0


def test_driven_high_frequency_limit():
    # w_d >> w0: amplitude -> QE/(M w_d^2) to O((w0/w_d)^2)
    spec = make_spec(1000.0)
    amp = analytic_driven_solution(spec).steady_amplitude
    naive = spec.charge * spec.field_amplitude / (
        spec.mass * spec.drive_frequency ** 2)
    assert amp == pytest.approx(naive, rel=2e-6)
    assert amp != naive


def test_resonance_rejected():
    with pytest.raises(Resonance):
        make_spec(1.0005)


@pytest.mark.parametrize("sample_every", [0, -1])
def test_driven_nonpositive_sample_every_raises(sample_every):
    with pytest.raises(ValueError, match="sample_every must be >= 1"):
        integrate_driven(make_spec(10.0), drive_periods=1,
                         sample_every=sample_every)


# ---------------------------------------------------------------------------
# equilibrium shift
# ---------------------------------------------------------------------------

def test_equilibrium_shift_linear_response():
    setup = reduced_linewidth_setup()
    shift = equilibrium_shift(setup)
    force0 = mean_force_at(setup, (0.0, 0.0, 0.0)).radiation_pressure[2]
    omega_ax = trap_summary(setup).optical_trap_frequencies[2]
    linear = force0 / (setup.ion.total_mass * omega_ax ** 2)
    assert shift == pytest.approx(linear, rel=0.05)
    # the located point is a genuine equilibrium
    residual = mean_force_at(setup, (0.0, 0.0, shift)).total[2]
    assert abs(residual) < 1e-6 * force0


def test_equilibrium_shift_with_static_confinement(mg_setup):
    curv = (2 * np.pi * 45e3) ** 2
    setup = make_reference_setup(static=(0.0, 0.0, curv))
    shift = equilibrium_shift(setup)
    force0 = mean_force_at(setup, (0.0, 0.0, 0.0)).radiation_pressure[2]
    omega_ax_sq = trap_summary(setup).optical_trap_frequencies[2] ** 2 + curv
    assert shift == pytest.approx(force0 / (setup.ion.total_mass
                                            * omega_ax_sq), rel=0.05)


def test_equilibrium_shift_scales_with_linewidth():
    small = equilibrium_shift(reduced_linewidth_setup(0.05))
    large = equilibrium_shift(reduced_linewidth_setup(0.10))
    assert large == pytest.approx(2 * small, rel=0.05)


def test_equilibrium_shift_off_and_noroot(mg_setup):
    assert equilibrium_shift(mg_setup, include_radiation_pressure=False) == 0.0
    # full-strength radiation pressure beats the optical axial maximum
    with pytest.raises(NoRoot):
        equilibrium_shift(mg_setup)


# ---------------------------------------------------------------------------
# frequency estimator
# ---------------------------------------------------------------------------

def test_dominant_frequency_synthetic():
    omega = 2 * np.pi * 123456.789
    t = np.linspace(0.0, 400 * 2 * np.pi / omega, 32768)
    freq = dominant_frequency(t, 3e-8 * np.cos(omega * t + 0.4))
    assert freq == pytest.approx(omega, rel=1e-7)


# ---------------------------------------------------------------------------
# pinned trajectory bytes
# ---------------------------------------------------------------------------
# The expected files come from an implementation that evaluated np.cos in
# the RK8 accelerations, s0/I0 on every force call and format_sig on every
# CSV cell; computing those invariants once must reproduce every byte.

DATA = Path(__file__).resolve().parent / "data"


def test_driven_csv_pinned_bytes():
    from optrap.constants import CONST
    omega0 = 2e5 * np.pi
    spec = DrivenOscillatorSpec(
        omega0=omega0, drive_frequency=100.0 * omega0, charge=CONST.e_charge,
        field_amplitude=1.0, mass=24.0 * CONST.atomic_mass_unit, x0=1e-8)
    text = integrate_driven(spec, drive_periods=2).to_csv_text()
    assert text == (DATA / "trajectory_driven_2_periods.csv").read_text()


def test_full_low_sat_csv_pinned_bytes(mg_setup):
    record = integrate_full(mg_setup, ((7e-8, 0.0, 0.0), (0.0, 0.0, 0.0)),
                            5e-6, include_radiation_pressure=False,
                            force_model="low_sat", samples=9)
    assert record.to_csv_text() == (
        DATA / "trajectory_full_low_sat.csv").read_text()


def test_full_exact_log_radiation_csv_pinned_bytes():
    # static curvatures on every axis exercise the hoisted static force
    setup = make_reference_setup(static=(1e10, 2e10, 3e10))
    record = integrate_full(setup, ((5e-8, 2e-8, 1e-7), (0.01, 0.0, 0.0)),
                            5e-6, include_radiation_pressure=True,
                            force_model="exact_log", samples=9)
    assert record.to_csv_text() == (
        DATA / "trajectory_full_exact_log_radiation.csv").read_text()


@pytest.mark.parametrize("rtol,atol", [(1e-10, 0.0), (1e-10, 1e-200),
                                       (1e-10, float("nan")), (0.0, 1e-16),
                                       (-1e-10, 1e-16)])
def test_integrate_full_rejects_bad_tolerances_before_solving(
        mg_setup, monkeypatch, rtol, atol):
    from optrap import dynamics

    def never(*args, **kwargs):
        raise AssertionError("solve_ivp was called")
    monkeypatch.setattr(dynamics, "solve_ivp", never)
    with pytest.raises(ValueError, match="atol"):
        integrate_full(mg_setup, ((7e-8, 0.0, 0.0), (0.0, 0.0, 0.0)), 1e-7,
                       rtol=rtol, atol=atol)


# with radiation pressure on, the force model selects only the dipolar part,
# so the name is checked before any force is evaluated
@pytest.mark.parametrize("radiation", [True, False])
def test_integrate_full_rejects_unknown_force_model_before_solving(
        mg_setup, monkeypatch, radiation):
    from optrap import dynamics

    def never(*args, **kwargs):
        raise AssertionError("solve_ivp was called")
    monkeypatch.setattr(dynamics, "solve_ivp", never)
    with pytest.raises(ValueError, match="'exactlog'"):
        integrate_full(mg_setup, ((7e-8, 0.0, 0.0), (0.0, 0.0, 0.0)), 1e-7,
                       include_radiation_pressure=radiation,
                       force_model="exactlog")
