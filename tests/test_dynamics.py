"""Trajectory integration, the driven oscillator, equilibrium shift."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from optrap import (DrivenOscillatorSpec, dominant_frequency,
                    equilibrium_shift, exact_driven_position,
                    integrate_driven, integrate_full, mean_force_at,
                    monopole_drive, steady_drive_amplitude, trap_summary)
from optrap.dynamics import MIN_RTOL, driven_steps
from optrap.errors import (EscapedTrap, InitialConditionWarning, NoRoot,
                           Resonance, UnreachableScale)
from optrap.integrators import (RK8_A, RK8_B, rk8_oscillator,
                                rk8_scalar_oscillator)

from conftest import WAIST, make_reference_setup


def reduced_linewidth_setup(factor=0.1):
    """Reference trap with Gamma scaled down; same depth and detuning.

    Lower Gamma weakens radiation pressure without touching the potential
    (the depth is re-anchored through the power), giving an axially
    stable purely optical configuration for equilibrium tests.
    """
    from optrap import IonSpecies, LaserBeam, TrapSetup, power_for_depth
    from conftest import DEPTH, DETUNING, LINEWIDTH, MASS_U, WAVELENGTH

    ion = IonSpecies.from_amu(MASS_U, 1.0)
    gamma = LINEWIDTH * factor
    probe = LaserBeam(wavelength=WAVELENGTH, waist_radius=WAIST,
                      detuning=DETUNING, power=1.0)
    power = power_for_depth(TrapSetup(ion, probe, gamma), DEPTH)
    beam = LaserBeam(wavelength=WAVELENGTH, waist_radius=WAIST,
                     detuning=DETUNING, power=power)
    return TrapSetup(ion, beam, gamma)


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
    s0 = mg_setup.saturation_at_focus
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


def test_start_beyond_escape_radius_raises(mg_setup):
    # ~1,400 waists out: the escape event fires only on an outward
    # crossing, so the start itself is refused
    with pytest.warns(InitialConditionWarning), \
            pytest.raises(EscapedTrap, match="at t = 0 s"):
        integrate_full(mg_setup, ((1e-2, 0.0, 0.0), (0.0, 0.0, 0.0)),
                       1e-6, include_radiation_pressure=False, samples=11)


def test_escape_radius_tie_is_refused():
    # |R| >= 100 waists is refused at t = 0; mg24's radius is exactly
    # 7e-4 m.  One ulp inside the run goes ahead: the force there
    # underflows to 0, so the ion stays where it started
    from optrap.config import load_config
    from optrap.dynamics import ESCAPE_RADIUS_WAISTS
    setup = load_config(Path(__file__).resolve().parent.parent / "demos"
                        / "mg24.json").setup
    edge = ESCAPE_RADIUS_WAISTS * setup.beam.waist_radius
    assert edge == 7e-4
    with pytest.warns(InitialConditionWarning), \
            pytest.raises(EscapedTrap, match="at t = 0 s"):
        integrate_full(setup, ((edge, 0.0, 0.0), (0.0, 0.0, 0.0)), 1e-6,
                       samples=11)
    inside = np.nextafter(edge, 0.0)
    with pytest.warns(InitialConditionWarning):
        record = integrate_full(setup, ((inside, 0.0, 0.0), (0.0, 0.0, 0.0)),
                                1e-6, samples=11)
    assert np.all(record.positions == (inside, 0.0, 0.0))


def test_waist_whose_fourth_power_underflows_is_refused():
    # the intensity gradient divides by w(z)^4, which underflows to 0 for
    # w0 = 1e-82 m: the run exits as a physics error before it integrates,
    # not on a float division by zero inside the force
    from optrap import IonSpecies, LaserBeam, TrapSetup
    from conftest import DETUNING, LINEWIDTH, MASS_U
    beam = LaserBeam(wavelength=1e-88, waist_radius=1e-82, detuning=DETUNING,
                     power=1e-3)
    setup = TrapSetup(IonSpecies.from_amu(MASS_U, 1.0), beam, LINEWIDTH)
    with pytest.raises(UnreachableScale, match=r"w0\^4 underflows"):
        integrate_full(setup, ((1e-84, 0.0, 0.0), (0.0, 0.0, 0.0)), 1e-95)


def test_initial_condition_warning(mg_setup):
    # 6 waists out transversally: optical force is negligible there
    with pytest.warns(InitialConditionWarning):
        integrate_full(mg_setup, ((6 * WAIST, 0, 0), (0, 0, 0)),
                       1e-6, include_radiation_pressure=False, samples=11)


def test_dark_beam_leaves_the_static_oscillator():
    # with no light only the static curvatures act: x0 cos(omega t)
    omega = 2 * np.pi * 100e3
    setup = make_reference_setup(power=0.0, static=(omega ** 2,) * 3)
    x0 = 1e-7
    rec = integrate_full(setup, ((x0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                         20 * 2 * np.pi / omega)
    exact = x0 * np.cos(omega * rec.times)
    assert np.max(np.abs(rec.positions[:, 0] - exact)) <= 1e-8 * x0


def test_trajectory_record_validation(mg_setup):
    record = integrate_full(mg_setup, ((0.01 * WAIST, 0, 0), (0, 0, 0)),
                            1e-5, include_radiation_pressure=False,
                            samples=64)
    assert len(record.times) == 64
    assert record.metadata["integrator"] == "DOP853"
    text = record.to_csv_text()
    lines = text.splitlines()
    assert lines[0] == "t,x,y,z,vx,vy,vz,E_kin,E_pot,E_tot"
    assert len(lines) == 65


def _csv_record(rows, rng):
    from optrap.dynamics import TrajectoryRecord
    cells = (rng.normal(size=(rows, 8))
             * 10.0 ** rng.integers(-30, 30, size=(rows, 8)))
    return TrajectoryRecord(times=np.arange(rows) * 1e-9 + 1e-9,
                            positions=cells[:, :3], velocities=cells[:, 3:6],
                            kinetic_energy=cells[:, 6],
                            potential_energy=cells[:, 7], metadata={})


def test_trajectory_csv_matches_a_cell_by_cell_oracle():
    from optrap.dynamics import CSV_BLOCK_ROWS
    from optrap.units import format_sig
    record = _csv_record(2 * CSV_BLOCK_ROWS + 37, np.random.default_rng(3))
    record.positions[0] = (-0.0, 5e-324, 1e300)
    record.velocities[1] = (2.2e-310, -1e300, 0.0)
    record.kinetic_energy[2] = record.potential_energy[2] = -0.0
    record.kinetic_energy[-1], record.potential_energy[-1] = 1e300, -4e-320
    columns = (record.times, *record.positions.T, *record.velocities.T,
               record.kinetic_energy, record.potential_energy,
               record.total_energy)
    oracle = ["t,x,y,z,vx,vy,vz,E_kin,E_pot,E_tot"] + [
        ",".join(format_sig(float(col[i]), 12) for col in columns)
        for i in range(len(record.times))]
    text = record.to_csv_text()
    assert text == "\n".join(oracle) + "\n"
    assert "-0,4.94065645841e-324,1e+300," in text
    assert text.endswith(",1e+300,-3.99995546873e-320,1e+300\n")


def test_trajectory_csv_peak_memory_stays_near_the_text_size():
    # the rows become Python floats one block at a time; a whole-table
    # tolist() would peak at ~5.5x the text
    import tracemalloc
    record = _csv_record(50_000, np.random.default_rng(4))
    tracemalloc.start()
    try:
        text = record.to_csv_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * len(text)


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
    spec = make_spec(ratio)
    return replace(spec, x0=-spec.steady_amplitude)


@pytest.mark.parametrize("ratio", [10.0, 100.0, 1000.0])
def test_driven_matches_closed_form(ratio):
    # generic initial conditions: both secular and drive tones present
    base = make_spec(ratio).steady_amplitude
    spec = make_spec(ratio, x0=1.7 * base, v0=0.3 * base * spec_omega0())
    record = integrate_driven(spec, drive_periods=64)
    exact = exact_driven_position(spec, record.times)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(record.positions[:, 0] - exact)) / scale < 1e-6


def spec_omega0():
    return 2 * np.pi * 1e5


@pytest.mark.parametrize("ratio", [10.0, 100.0, 1000.0])
def test_spec_closed_forms(ratio):
    # the spec's properties are the closed forms, bit for bit
    spec = make_spec(ratio)
    charge, field, mass = spec.charge, spec.field_amplitude, spec.mass
    wd, w0 = spec.drive_frequency, spec.omega0
    amp = charge * field / (mass * (wd ** 2 - w0 ** 2))
    assert spec.steady_amplitude == amp
    assert spec.drive_kinetic_energy == mass * amp ** 2 * wd ** 2 / 4


@pytest.mark.parametrize("ratio", [10.0, 100.0, 1000.0])
def test_driven_steady_amplitude(ratio):
    spec = on_steady_state(ratio)
    record = integrate_driven(spec, drive_periods=64)
    numeric = steady_drive_amplitude(record, spec.drive_frequency)
    exact = spec.steady_amplitude
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
                              steps_per_period=64)
    energy = record.total_energy
    assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-9


def test_drive_kinetic_energy_vs_monopole(mg_setup):
    # at the physical drive (w_d = omega_L >> w0) the steady-state mean
    # kinetic energy is exactly half the (QA)^2/2M monopole energy scale
    amps = mg_setup.focus_fields
    omega_l = mg_setup.beam.omega_laser
    omega0 = trap_summary(mg_setup).optical_trap_frequencies[0]
    spec = DrivenOscillatorSpec(
        omega0=omega0, drive_frequency=omega_l,
        charge=mg_setup.ion.total_charge, field_amplitude=amps.electric,
        mass=mg_setup.ion.total_mass)
    with pytest.raises(UnreachableScale):
        integrate_driven(spec, drive_periods=1)
    mono = monopole_drive(mg_setup)
    assert spec.drive_kinetic_energy == pytest.approx(
        mono.drive_energy / 2, rel=1e-9)
    # amplitude ~ QE/(M w_L^2): hand evaluation gives 1.49e-19 m
    assert abs(spec.steady_amplitude) == pytest.approx(1.488e-19,
                                                       rel=1e-3)
    # drive kinetic energy scales with the squared field amplitude
    doubled_field = DrivenOscillatorSpec(
        omega0=omega0, drive_frequency=omega_l,
        charge=mg_setup.ion.total_charge,
        field_amplitude=2 * amps.electric, mass=mg_setup.ion.total_mass)
    assert doubled_field.drive_kinetic_energy \
        == pytest.approx(4 * spec.drive_kinetic_energy, rel=1e-12)


def test_driven_zero_field():
    spec = make_spec(10.0)
    spec = DrivenOscillatorSpec(
        omega0=spec.omega0, drive_frequency=spec.drive_frequency,
        charge=spec.charge, field_amplitude=0.0, mass=spec.mass)
    assert spec.steady_amplitude == 0.0


def test_driven_high_frequency_limit():
    # w_d >> w0: amplitude -> QE/(M w_d^2) to O((w0/w_d)^2)
    spec = make_spec(1000.0)
    amp = spec.steady_amplitude
    naive = spec.charge * spec.field_amplitude / (
        spec.mass * spec.drive_frequency ** 2)
    assert amp == pytest.approx(naive, rel=2e-6)
    assert amp != naive


def test_resonance_rejected():
    with pytest.raises(Resonance):
        make_spec(1.0005)


@pytest.mark.parametrize("drive,refused", [(1001.0, False), (999.0, False),
                                           (1000.999, True), (999.001, True)])
def test_resonance_tie_is_accepted(drive, refused):
    # refused iff |w_d - w0| < 1e-3 w0: at w0 = 1000 a drive 1 away runs
    def build():
        return DrivenOscillatorSpec(omega0=1000.0, drive_frequency=drive,
                                    charge=1.0, field_amplitude=1.0, mass=1.0)
    if refused:
        with pytest.raises(Resonance):
            build()
    else:
        build()


def _stepped(spec, **run):
    """integrate_driven's (times, x, v) by sequential RK8 steps."""
    t_end, nsteps = driven_steps(spec.omega0, spec.drive_frequency, **run)
    qe_over_m = float(spec.charge * spec.field_amplitude / spec.mass)
    w0_sq, wd = float(spec.omega0 ** 2), float(spec.drive_frequency)
    h, nsteps = t_end / nsteps, int(nsteps)

    def accel(t, x):
        return qe_over_m * math.cos(wd * t) - w0_sq * x
    # step k starts at t0 = k h, where one nsteps-step call is at 0.0 + k h
    xs, vs = [float(spec.x0)], [float(spec.v0)]
    for k in range(nsteps):
        x, v = rk8_oscillator(accel, k * h, h, 1, xs[-1], vs[-1])
        xs.append(x)
        vs.append(v)
    return np.arange(nsteps + 1) * h, np.array(xs), np.array(vs)


@pytest.mark.parametrize("periods", [2, 200])
def test_driven_metadata_counts_its_kernel_steps(monkeypatch, periods):
    from optrap import dynamics
    kernel_steps = []
    kernel = dynamics.rk8_scalar_oscillator

    def counted(accel, t0, h, nsteps, x0, v0):
        kernel_steps.append(nsteps)
        return kernel(accel, t0, h, nsteps, x0, v0)
    monkeypatch.setattr(dynamics, "rk8_scalar_oscillator", counted)
    spec = DrivenOscillatorSpec(omega0=2e5, drive_frequency=2e6, charge=1.6e-19,
                                field_amplitude=1.0, mass=4e-26)
    record = integrate_driven(spec, drive_periods=periods)
    assert record.metadata["rk8_steps"] == sum(kernel_steps) == 4
    assert len(record.times) > 4 * periods


@pytest.mark.parametrize("shape", [None, (5, 2)], ids=["float", "array"])
def test_rk8_single_steps_are_one_call(shape):
    # _stepped above relies on both identities, bit for bit: n one-step
    # calls from t0 = k h are one n-step call from 0.0, and the float
    # wrapper is the kernel on floats
    rng = np.random.default_rng(7)
    h, nsteps = 0.0625 * math.pi, 37
    if shape is None:
        a, x0, v0 = 1.3, 0.4, -1.1
    else:
        a = rng.uniform(0.1, 3.0, (shape[0], 1))
        x0, v0 = rng.uniform(-1.0, 1.0, (2,) + shape)

    def accel(t, x):
        return 0.3 * math.cos(1.7 * t) - (a - 0.2 * math.cos(2.0 * t)) * x
    x, v = x0, v0
    for k in range(nsteps):
        x, v = rk8_oscillator(accel, k * h, h, 1, x, v)
    whole = rk8_oscillator(accel, 0.0, h, nsteps, x0, v0)
    if shape is None:
        assert (x, v) == whole
        assert type(x) is float and type(v) is float
        assert rk8_scalar_oscillator(accel, 0.0, h, nsteps, x0, v0) == whole
    else:
        assert np.array_equal(x, whole[0]) and np.array_equal(v, whole[1])
        assert x.shape == shape


def _free_recurrence(spec, h, nsteps):
    """(x, v) of the RK8 recurrence for Q = 0 in 40-digit arithmetic, with
    the kernel's own step coefficients (h a_ij and h b_i as floats)."""
    with mpmath.workdps(40):
        a = [[mpmath.mpf(h * aij) for aij in row] for row in RK8_A]
        b = [mpmath.mpf(h * bi) for bi in RK8_B]
        w0_sq = mpmath.mpf(float(spec.omega0 ** 2))
        x, v = mpmath.mpf(spec.x0), mpmath.mpf(spec.v0)
        xs, vs = [x], [v]
        for _ in range(nsteps):
            kx, kv = [], []
            for row in a:
                kx.append(v + sum(aij * k for aij, k in zip(row, kv)))
                kv.append(-w0_sq * (x + sum(aij * k
                                            for aij, k in zip(row, kx))))
            x += sum(bi * k for bi, k in zip(b, kx))
            v += sum(bi * k for bi, k in zip(b, kv))
            xs.append(x)
            vs.append(v)
        return np.array(xs, dtype=float), np.array(vs, dtype=float)


def _no_worse_than_stepping(got, stepped, reference):
    # the closed form may lose at most 4 units of 2^-52 of the series' max
    # against the stepping kernel's own error
    worst = np.max(np.abs(reference))
    return (np.max(np.abs(got - reference))
            <= np.max(np.abs(stepped - reference)) + 4 * 2.0 ** -52 * worst)


@pytest.mark.parametrize("charge", [1.0, 0.0], ids=["driven", "Q0"])
@pytest.mark.parametrize("periods", [2, 8])
@pytest.mark.parametrize("ratio", [10.0, 100.0, 1000.0])
def test_driven_closed_form_no_worse_than_stepping(ratio, periods, charge):
    # generic start; the reference is the continuous solution, and for
    # Q = 0 the recurrence itself: there the continuous error is RK8's own
    # phase error, which stepping round-off can happen to offset
    base = make_spec(ratio).steady_amplitude
    spec = replace(make_spec(ratio, x0=1.7 * base,
                             v0=0.3 * base * spec_omega0()),
                   charge=charge * make_spec(ratio).charge)
    record = integrate_driven(spec, drive_periods=periods)
    ts, x_step, v_step = _stepped(spec, drive_periods=periods)
    assert np.array_equal(record.times, ts)
    if charge:
        amp, wd, w0 = spec.steady_amplitude, spec.drive_frequency, spec.omega0
        x_ref = exact_driven_position(spec, ts)
        v_ref = (amp * wd * np.sin(wd * ts)
                 - (spec.x0 + amp) * w0 * np.sin(w0 * ts)
                 + spec.v0 * np.cos(w0 * ts))
    else:
        x_ref, v_ref = _free_recurrence(spec, ts[1], len(ts) - 1)
    assert _no_worse_than_stepping(record.positions[:, 0], x_step, x_ref)
    assert _no_worse_than_stepping(record.velocities[:, 0], v_step, v_ref)


@pytest.mark.parametrize("periods", [2, 200])
def test_driven_run_takes_four_kernel_steps(monkeypatch, periods):
    # the one-step map comes from the kernel; the run itself does not step
    import optrap.dynamics
    kernel = optrap.dynamics.rk8_scalar_oscillator
    steps = []

    def counted(accel, t0, h, nsteps, x0, v0):
        steps.append(nsteps)
        return kernel(accel, t0, h, nsteps, x0, v0)
    monkeypatch.setattr(optrap.dynamics, "rk8_scalar_oscillator", counted)
    record = integrate_driven(make_spec(100.0), drive_periods=periods)
    assert sum(steps) == 4
    assert len(record.times) == 64 * periods + 1


@pytest.mark.parametrize("ratio", [10.0, 100.0, 1000.0])
def test_driven_numpy_scalars_keep_float_bits(ratio):
    # numpy frequencies make t_end a numpy float; the run still steps and
    # solves in Python float math, so no bit moves
    spec = make_spec(ratio, x0=-make_spec(ratio).steady_amplitude)
    as_numpy = replace(spec, omega0=np.float64(spec.omega0),
                       drive_frequency=np.float64(spec.drive_frequency))
    want, got = (integrate_driven(s, drive_periods=8)
                 for s in (spec, as_numpy))
    for name in ("times", "positions", "velocities"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_driven_low_frequency_bound():
    # refused iff w0^2 is below the smallest normal float: w0 < 2^-511
    def build(omega0):
        return DrivenOscillatorSpec(omega0=omega0, drive_frequency=10 * omega0,
                                    charge=0.0, field_amplitude=1.0, mass=1.0,
                                    x0=1.0)
    tie = 2.0 ** -511
    assert tie ** 2 == sys.float_info.min
    record = integrate_driven(build(tie), drive_periods=2)
    assert record.positions[-1, 0] == pytest.approx(
        np.cos(tie * record.times[-1]), rel=1e-12)
    with pytest.raises(UnreachableScale, match="float range"):
        build(np.nextafter(tie, 0.0))


@pytest.mark.parametrize("excess,steps", [(0.0, 100.0), (5e-10, 100.0),
                                          (2e-9, 101.0)])
def test_driven_steps_slack_rule(excess, steps):
    # max(ceil(t_end/h - 1e-9), 1): up to 1e-9 steps past 100 still gives 100
    omega0 = 2 * np.pi * 1e5
    h = 2 * np.pi / omega0 / 64
    t_end = h * (100 + excess)
    assert driven_steps(omega0, omega0 / 2, t_end=t_end) == (t_end, steps)


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


@pytest.mark.parametrize("level", [0.0, 0.1, -3e-7])
def test_dominant_frequency_of_a_motionless_signal_is_nan(level):
    # a flat signal has no spectral peak; the FFT argmax of zeros and its
    # refinement on a flat objective would give a made-up frequency
    t = np.linspace(0.0, 5e-6, 101)
    assert np.isnan(dominant_frequency(t, np.full(101, level)))


@pytest.mark.parametrize("cycles,samples", [(0.95, 101), (1.5, 101),
                                            (0.95, 2), (0.95, 3), (0.95, 9)])
def test_dominant_frequency_under_two_cycles_is_nan(cycles, samples):
    # the peak sits in the lowest non-zero bin, so the estimate would be
    # set by the span (~2 pi / t_end), not by the signal
    omega = 1.189e6
    t = np.linspace(0.0, cycles * 2 * np.pi / omega, samples)
    assert np.isnan(dominant_frequency(t, np.cos(omega * t + 0.3)))
    t = np.linspace(0.0, 2.5 * 2 * np.pi / omega, 101)
    assert dominant_frequency(t, np.cos(omega * t + 0.3)) == pytest.approx(
        omega, rel=0.01)


# ---------------------------------------------------------------------------
# pinned trajectory bytes
# ---------------------------------------------------------------------------
# The driven file is integrate_driven's closed form of the RK8 recurrence.
# Regenerated from it, every cell kept the bytes that sequential RK8
# stepping wrote before (and an implementation before that, which
# evaluated np.cos in the accelerations and format_sig on every cell);
# test_driven_closed_form_no_worse_than_stepping bounds the closed form
# against that stepping.  The two full-trajectory
# files come from scipy's DOP853 with s and grad s scaled by the setup's
# s0/I0; they change only if that integration or the force arithmetic
# changes, and test_full_accuracy.py bounds their error.

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


def _avx512_dispatch():
    """The AVX512-class targets that numpy dispatches to on this host, by
    numpy's own names (a name outside its list only draws a warning)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                       # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__
            if (name.startswith("AVX512") or name == "X86_V4")
            and umath.__cpu_features__.get(name)]


def test_pinned_bytes_hold_without_avx512():
    # numpy's AVX512 exp and log1p loops differ from libm by an ulp on a few
    # per cent of arguments, and an ulp in the force moves DOP853's steps.
    # A child process re-runs the three pinned-trajectory tests with those
    # loops off (numpy reads the variable once, at import), as on an
    # AVX2-only CPU; on a host without AVX512 nothing is switched off.
    features = _avx512_dispatch()
    env = {key: value for key, value in os.environ.items()
           if key != "NPY_DISABLE_CPU_FEATURES"}
    if features:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(features)
    tests = [f"{__file__}::{name}" for name in (
        "test_driven_csv_pinned_bytes", "test_full_low_sat_csv_pinned_bytes",
        "test_full_exact_log_radiation_csv_pinned_bytes")]
    child = "\n".join([
        "import sys, pytest",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from test_dynamics import _avx512_dispatch",
        "assert _avx512_dispatch() == [], _avx512_dispatch()",
        f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *{tests!r}]))"])
    done = subprocess.run([sys.executable, "-c", child], env=env,
                          cwd=Path(__file__).parent.parent,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "3 passed" in done.stdout, done.stdout


@pytest.mark.parametrize("rtol,atol", [(1e-10, 0.0), (1e-10, 1e-200),
                                       (1e-10, float("nan")), (0.0, 1e-16),
                                       (-1e-10, 1e-16), (1e-15, 1e-16),
                                       (np.nextafter(MIN_RTOL, 0.0), 1e-16)])
def test_integrate_full_rejects_bad_tolerances_before_solving(
        mg_setup, monkeypatch, rtol, atol):
    from optrap import dynamics

    def never(*args, **kwargs):
        raise AssertionError("solve_ivp was called")
    monkeypatch.setattr(dynamics, "solve_ivp", never)
    with pytest.raises(ValueError, match="atol"):
        integrate_full(mg_setup, ((7e-8, 0.0, 0.0), (0.0, 0.0, 0.0)), 1e-7,
                       rtol=rtol, atol=atol)


_AT_REST = ((7e-8, 0.0, 0.0), (0.0, 0.0, 0.0))


@pytest.mark.parametrize("t_end,initial,match", [
    (0.0, _AT_REST, "t_end > 0"), (-1e-7, _AT_REST, "t_end > 0"),
    (float("nan"), _AT_REST, "t_end > 0"),
    (1e-7, ((float("nan"), 0.0, 0.0), (0.0, 0.0, 0.0)), "finite"),
    (1e-7, ((7e-8, 0.0, 0.0), (0.0, float("inf"), 0.0)), "finite")])
def test_integrate_full_rejects_bad_span_or_start_before_solving(
        mg_setup, monkeypatch, t_end, initial, match):
    # DOP853 runs forward from a finite state only
    from optrap import dynamics

    def never(*args, **kwargs):
        raise AssertionError("solve_ivp was called")
    monkeypatch.setattr(dynamics, "solve_ivp", never)
    with pytest.raises(ValueError, match=match):
        integrate_full(mg_setup, initial, t_end)


@pytest.mark.parametrize("force_model", ["low_sat", "exact_log"])
@pytest.mark.parametrize("radiation", [True, False])
def test_integrate_full_one_force_call_per_evaluation(
        mg_setup, monkeypatch, radiation, force_model):
    # each right-hand-side evaluation is exactly one call of the run's float
    # kernel (dipole_trap.secular_rhs), no public force or profile function
    # runs while solve_ivp does, and the record keeps solve_ivp's nfev
    from optrap import dipole_trap, dynamics, model
    kernel_calls = []
    build_kernel = dynamics.secular_rhs

    def counted_kernel(*args):
        rhs = build_kernel(*args)

        def counted(t, y):
            kernel_calls.append(t)
            return rhs(t, y)
        return counted
    monkeypatch.setattr(dynamics, "secular_rhs", counted_kernel)
    public_calls = []
    solving = []
    for module in (dipole_trap, dynamics, model):
        for name in ("dipole_force_at", "mean_force_at",
                     "effective_potential_at", "saturation_at",
                     "intensity_at", "intensity_gradient_at"):
            if hasattr(module, name):
                def watched(*args, _name=name, _f=getattr(module, name),
                            **kwargs):
                    if solving:
                        public_calls.append(_name)
                    return _f(*args, **kwargs)
                monkeypatch.setattr(module, name, watched)
    solutions = []
    solve_ivp = dynamics.solve_ivp

    def kept_solve_ivp(*args, **kwargs):
        solving.append(True)
        try:
            solutions.append(solve_ivp(*args, **kwargs))
        finally:
            solving.clear()
        return solutions[-1]
    monkeypatch.setattr(dynamics, "solve_ivp", kept_solve_ivp)
    setup = make_reference_setup(static=(0.0, 0.0, 1e10))
    record = integrate_full(setup, ((7e-8, 0.0, 0.0), (0.0, 0.0, 0.0)),
                            2e-6, include_radiation_pressure=radiation,
                            force_model=force_model, samples=9)
    assert len(kernel_calls) == solutions[0].nfev > 0
    assert record.metadata["nfev"] == len(kernel_calls)
    assert public_calls == []


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
