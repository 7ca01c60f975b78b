"""Full-mode trajectories against an independent high-precision reference.

The reference force is written here from the closed forms, not from
``optrap``'s force functions: the TEM00 profile, s through E -> Omega,
the dipolar force in either mode, radiation pressure and the static
stiffness.  scipy's DOP853 integrates it at rtol 1e-13.  The error of a
trajectory is max |delta| / max |reference| over every sample and axis,
for positions and velocities separately.

Each bound is twice the error of the force chain that took s through
E -> Omega at every point (``CHAIN_ERRORS`` below): this file's
functions applied to that chain's pinned CSVs and in-process run, with
numpy 2.4, scipy 1.17, x86-64.  This reference agrees with itself at
rtol 3e-14 and atol 1e-30 to 2e-13.  A change to the force arithmetic
may move a pinned trajectory's last digits; it may not make the
trajectory less accurate than that.
"""

import csv
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from optrap import integrate_full
from optrap.config import load_config
from optrap.constants import CONST

from conftest import make_reference_setup

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

# (position, velocity) error of each case with s from E -> Omega per point
CHAIN_ERRORS = {
    "trajectory_full_low_sat.csv": (4.07e-10, 3.12e-10),
    "trajectory_full_exact_log_radiation.csv": (2.07e-11, 4.10e-11),
    "mg24 exact_log with radiation pressure": (5.91e-12, 6.30e-11),
}


def reference_rhs(setup, force_model, radiation):
    """dy/dt of M R'' = F(R) from the closed forms, y = (R, V)."""
    beam = setup.beam
    w0_sq = beam.waist_radius ** 2
    z_r = np.pi * w0_sq / beam.wavelength
    k = 2.0 * np.pi / beam.wavelength
    delta, gamma = beam.detuning, setup.linewidth
    omega_eg = CONST.c * k - delta
    dipole = np.sqrt(3.0 * np.pi * CONST.eps0 * CONST.hbar * CONST.c ** 3
                     * gamma / omega_eg ** 3)
    mass, charge = setup.ion.total_mass, setup.ion.total_charge
    d_eff = dipole * (1.0 + CONST.m_electron * charge
                      / (mass * CONST.e_charge))
    stiffness = -mass * np.asarray(setup.static_curvatures)

    def rhs(_t, y):
        x, yy, z = y[:3]
        w_sq = w0_sq * (1.0 + (z / z_r) ** 2)
        r_sq = x * x + yy * yy
        intensity = (2.0 * beam.power / (np.pi * w_sq)
                     * np.exp(-2.0 * r_sq / w_sq))
        e_field = np.sqrt(2.0 * intensity / (CONST.eps0 * CONST.c))
        rabi = d_eff * e_field / CONST.hbar
        s = 0.5 * rabi ** 2 / (delta ** 2 + 0.25 * gamma ** 2)
        # grad s = s grad ln I
        dw_sq_dz = 2.0 * w0_sq * z / z_r ** 2
        grad_s = s * np.array([-4.0 * x / w_sq, -4.0 * yy / w_sq,
                               dw_sq_dz * (2.0 * r_sq - w_sq) / w_sq ** 2])
        soften = 1.0 / (1.0 + s) if force_model == "exact_log" else 1.0
        force = -0.5 * CONST.hbar * delta * soften * grad_s
        if radiation:
            force[2] += 0.5 * CONST.hbar * gamma * k * s / (1.0 + s)
        force = force + stiffness * y[:3]
        return np.concatenate([y[3:], force / mass])
    return rhs


def reference_errors(setup, times, positions, velocities, force_model,
                     radiation):
    """(position, velocity) error of a sampled trajectory."""
    y0 = np.concatenate([positions[0], velocities[0]])
    ref = solve_ivp(reference_rhs(setup, force_model, radiation),
                    (times[0], times[-1]), y0, method="DOP853", rtol=1e-13,
                    atol=np.array([1e-22] * 3 + [1e-17] * 3), t_eval=times)
    assert ref.status == 0, ref.message
    ref_pos, ref_vel = ref.y[:3].T, ref.y[3:].T
    return (np.max(np.abs(positions - ref_pos)) / np.max(np.abs(ref_pos)),
            np.max(np.abs(velocities - ref_vel)) / np.max(np.abs(ref_vel)))


def parsed_csv(name):
    with open(DATA / name, newline="") as handle:
        rows = np.array([[float(v) for v in row[:7]]
                         for row in list(csv.reader(handle))[1:]])
    return rows[:, 0], rows[:, 1:4], rows[:, 4:7]


def assert_within_twice_chain(case, errors):
    for what, got, chain in zip(("position", "velocity"), errors,
                                CHAIN_ERRORS[case]):
        assert got <= 2.0 * chain, f"{case}: {what} error {got:.3g}"


@pytest.mark.parametrize("name,setup,force_model,radiation", [
    ("trajectory_full_low_sat.csv", make_reference_setup(), "low_sat", False),
    ("trajectory_full_exact_log_radiation.csv",
     make_reference_setup(static=(1e10, 2e10, 3e10)), "exact_log", True),
])
def test_pinned_full_trajectory_accuracy(name, setup, force_model, radiation):
    # the pinned files of test_dynamics.py, as their 12-digit cells read
    times, positions, velocities = parsed_csv(name)
    assert_within_twice_chain(name, reference_errors(
        setup, times, positions, velocities, force_model, radiation))


def test_mg24_exact_log_radiation_accuracy():
    setup = load_config(ROOT / "demos" / "mg24.json").setup
    record = integrate_full(setup, ((7e-8, 0.0, 0.0), (0.0, 0.0, 0.0)), 2e-5,
                            include_radiation_pressure=True,
                            force_model="exact_log", samples=257)
    assert_within_twice_chain(
        "mg24 exact_log with radiation pressure",
        reference_errors(setup, record.times, record.positions,
                         record.velocities, "exact_log", True))
