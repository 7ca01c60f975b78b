"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  The bundled demos/mg24.json is the canonical fixture for
the configuration-level criteria.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from optrap import (IonSpecies, DrivenOscillatorSpec, corrections_table,
                    dominant_frequency, effective_potential_at, heating_rate,
                    integrate_driven, integrate_full, mathieu_monodromy,
                    mean_force_at, mean_occupation, monodromy_stability,
                    monopole_drive, optical_mathieu_params,
                    steady_drive_amplitude, trap_summary)
from optrap.cli import main
from optrap.config import load_config
from optrap.constants import CONST
from optrap.reporting import REFERENCE_FREQUENCY_ORDERS, build_report

REPO = Path(__file__).resolve().parent.parent
MG24 = REPO / "demos" / "mg24.json"
TWO_PI = 2 * np.pi


def report_line(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {label} {detail}"


@pytest.fixture(scope="module")
def mg():
    return load_config(MG24)


def test_criterion_1_table_i_hierarchy(mg):
    t0 = time.perf_counter()
    report = build_report(mg)
    elapsed = time.perf_counter() - t0
    rows = {row["name"]: row for row in report["hierarchy"]}

    within_decade = all(
        abs(np.log10(rows[name]["two_pi_hz"] / order)) <= 1.0
        for name, (_symbol, order) in REFERENCE_FREQUENCY_ORDERS.items())
    recoil = rows["recoil"]["two_pi_hz"]
    depth_rate = rows["depth_rate"]["two_pi_hz"]
    rabi = rows["rabi"]["two_pi_hz"]
    detuning = rows["abs_detuning"]["two_pi_hz"]
    ok = (within_decade
          and abs(recoil - 1.06e5) <= 0.02e5
          and abs(depth_rate - 1.0e9) <= 0.1e9
          and abs(rabi - 3.5e10) <= 0.5e10
          and detuning == pytest.approx(3.0e11, rel=1e-12)
          and elapsed < 1.0)
    report_line(1, "hierarchy reproduces the published frequency table", ok,
                f"(E_rec/hbar={recoil:.4g}, U0/hbar={depth_rate:.4g}, "
                f"Omega={rabi:.4g}, runtime={elapsed:.3f}s)")


def test_criterion_2_trap_frequencies(mg):
    t0 = time.perf_counter()
    summary = trap_summary(mg.setup)
    elapsed = time.perf_counter() - t0
    radial = summary.optical_trap_frequencies[0] / TWO_PI
    axial = summary.optical_trap_frequencies[2] / TWO_PI
    ok = (abs(radial - 200e3) / 200e3 <= 0.15
          and abs(axial - 2e3) / 2e3 <= 0.25
          and elapsed < 1.0)
    report_line(2, "radial/axial trap frequencies near published values", ok,
                f"(radial=2pi x {radial/1e3:.1f} kHz, "
                f"axial=2pi x {axial/1e3:.2f} kHz)")


def test_criterion_3_table_ii_ratios(mg):
    ledger = corrections_table(mg.setup,
                               blackbody_prefactor=mg.blackbody_prefactor)
    entry = {e.name: e for e in ledger.entries}
    m_ratio = CONST.m_electron / mg.setup.ion.total_mass
    qeff = entry["effective_charge_correction"]
    shift_hz = entry["quadratic_field_shift_hz"].value
    ok = (1e-6 <= entry["octupole_correction"].ratio_to_u0 <= 1e-5
          and 1e-8 <= entry["monopole_coupling"].ratio_to_u0 <= 1e-7
          and 1e-5 <= entry["spin_orbit_coupling"].ratio_to_u0 <= 2e-5
          and abs(qeff.ratio_to_u0 - m_ratio) <= 1e-9
          and qeff.paper_order == 1e-4  # the decade gap stays visible
          and 1e-15 <= entry["spin_flip_probability"].ratio_to_u0 <= 1e-14
          and 0.3 <= shift_hz <= 1.7)
    report_line(3, "correction ledger ratios in their stated ranges", ok,
                f"(octupole={entry['octupole_correction'].ratio_to_u0:.3g}, "
                f"monopole={entry['monopole_coupling'].ratio_to_u0:.3g}, "
                f"q_eff={qeff.ratio_to_u0:.3g} vs published 1e-4, "
                f"spin-flip={entry['spin_flip_probability'].ratio_to_u0:.3g}, "
                f"shift={shift_hz:.3g} Hz)")


def test_criterion_4_monopole_micromotion_energy(mg):
    drive = monopole_drive(mg.setup)
    temp_nk = drive.equivalent_temperature * 1e9
    beam = mg.setup.beam
    doubled = replace(mg.setup, beam=replace(beam, power=2.0 * beam.power))
    ratio_drift = abs(monopole_drive(doubled).ratio_to_depth
                      / drive.ratio_to_depth - 1.0)
    ok = abs(temp_nk - 1.4) <= 0.5 and ratio_drift <= 1e-9
    report_line(4, "monopole drive energy and intensity invariance", ok,
                f"(kB x {temp_nk:.2f} nK, ratio drift {ratio_drift:.1e} "
                "under power doubling)")


def test_criterion_5_mathieu_floquet(mg):
    t0 = time.perf_counter()
    grid_axis = np.linspace(-2.0, 2.0, 100)
    aa, qq = np.meshgrid(grid_axis, grid_axis, indexing="ij")
    mono = mathieu_monodromy(aa, qq)
    elapsed = time.perf_counter() - t0
    dets = mono[..., 0, 0] * mono[..., 1, 1] - mono[..., 0, 1] * mono[..., 1, 0]
    det_err = float(np.max(np.abs(dets - 1.0)))

    lo, hi = 0.85, 1.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        m = mathieu_monodromy(0.0, mid)
        if abs(m[0, 0] + m[1, 1]) < 2.0:
            lo = mid
        else:
            hi = mid
    boundary = 0.5 * (lo + hi)

    law_ok = all(
        monodromy_stability((a, q)).micromotion_ratio
        == pytest.approx(abs(q) / 2, rel=0.05)
        for a, q in ((0.01, 0.005), (0.02, 0.01), (0.04, 0.02),
                     (0.02, 0.05), (0.02, -0.05)))

    a_optical = optical_mathieu_params(mg.setup, axis=0).a
    ok = (det_err <= 1e-9
          and abs(boundary - 0.908) <= 0.005
          and law_ok
          and 1e-20 <= a_optical <= 1e-19
          and elapsed < 60.0)
    report_line(5, "monodromy determinant, boundary, micromotion law", ok,
                f"(max|det-1|={det_err:.1e}, boundary q={boundary:.4f}, "
                f"optical a={a_optical:.2e}, grid runtime={elapsed:.1f}s)")


def test_criterion_6_driven_scaling(mg):
    mass = mg.setup.ion.total_mass
    charge = mg.setup.ion.total_charge
    omega0 = TWO_PI * 1e5
    ratios = (10.0, 100.0, 1000.0)
    rel_errors = []
    rel_amps = []
    for ratio in ratios:
        spec = DrivenOscillatorSpec(omega0=omega0,
                                    drive_frequency=ratio * omega0,
                                    charge=charge, field_amplitude=1e6,
                                    mass=mass)
        exact = spec.steady_amplitude
        spec = replace(spec, x0=-exact)
        record = integrate_driven(spec, drive_periods=64)
        numeric = steady_drive_amplitude(record, spec.drive_frequency)
        rel_errors.append(abs(numeric / exact - 1.0))
        static = charge * 1e6 / (mass * omega0 ** 2)
        rel_amps.append(abs(numeric) / static)
    slope = np.polyfit(np.log(1.0 / np.asarray(ratios)), np.log(rel_amps),
                       1)[0]
    ok = max(rel_errors) <= 1e-6 and abs(slope - 2.0) <= 0.02
    report_line(6, "driven steady state matches closed form, exponent 2", ok,
                f"(worst rel err {max(rel_errors):.1e}, "
                f"fitted exponent {slope:.4f})")


def test_criterion_7_blackbody(mg):
    nbar = mean_occupation(TWO_PI * 1e5, 300.0)
    nbar_ok = abs(nbar - 6.2e7) / 6.2e7 <= 0.02

    base = heating_rate(mg.setup, TWO_PI * 1e5)
    setup2q = replace(mg.setup, ion=IonSpecies.from_amu(24.0, 2.0))
    q_exact = heating_rate(setup2q, TWO_PI * 1e5).heating_rate \
        == pytest.approx(4 * base.heating_rate, rel=1e-14)
    hot = replace(mg.setup, temperature=600.0)
    t_linear = heating_rate(hot, TWO_PI * 1e5).heating_rate \
        == pytest.approx(2 * base.heating_rate, rel=1e-6)

    # config-level estimate lands within two decades of the published
    # 1e-7 Hz, carried next to that reference order in the ledger
    ledger = corrections_table(mg.setup)
    bb = ledger.entry("blackbody_heating_per_s")
    decade_gap = abs(np.log10(bb.value / bb.paper_order))
    ok = nbar_ok and q_exact and t_linear and decade_gap <= 2.0
    report_line(7, "thermal occupation and heating-rate laws", ok,
                f"(nbar={nbar:.4g}, rate={bb.value:.3g}/s vs published "
                f"{bb.paper_order:g}/s: {decade_gap:.2f} decades apart)")


def test_criterion_8_numerics_suite(mg):
    setup = mg.setup
    waist = setup.beam.waist_radius
    zr = setup.beam.rayleigh_range

    # analytic vs finite-difference force at 1e4 random points
    rng = np.random.default_rng(2024)
    n = 10_000
    pts = np.stack([rng.uniform(-1.5, 1.5, n) * waist,
                    rng.uniform(-1.5, 1.5, n) * waist,
                    rng.uniform(-1.5, 1.5, n) * zr], axis=-1)
    analytic = mean_force_at(setup, pts).dipolar
    h = waist * 1e-4
    fd = np.empty_like(analytic)
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        fd[:, axis] = -(effective_potential_at(setup, pts + step,
                                               mode="exact_log")
                        - effective_potential_at(setup, pts - step,
                                                 mode="exact_log")) / (2 * h)
    scale = np.linalg.norm(fd, axis=-1) + 1e-9 * np.max(np.abs(fd))
    force_err = float(np.max(np.linalg.norm(analytic - fd, axis=-1) / scale))

    # conservative energy drift over 1e3 radial periods
    summary = trap_summary(setup)
    omega_r = summary.optical_trap_frequencies[0]
    period = TWO_PI / omega_r
    record = integrate_full(setup, ((0.01 * waist, 0, 0), (0, 0, 0)),
                            1000 * period, include_radiation_pressure=False,
                            samples=2001)
    drift = float(np.max(np.abs(record.total_energy - record.total_energy[0]))
                  / abs(record.total_energy[0]))

    # trajectory frequency vs the matching Hessian frequency
    rec = integrate_full(setup, ((0.01 * waist, 0, 0), (0, 0, 0)),
                         256 * period, include_radiation_pressure=False,
                         force_model="low_sat", samples=16385)
    freq = dominant_frequency(rec.times, rec.positions[:, 0])
    freq_err = abs(freq - omega_r) / omega_r

    ok = force_err < 1e-6 and drift < 1e-8 and freq_err < 1e-3
    report_line(8, "force consistency, energy drift, spectral frequency", ok,
                f"(force err {force_err:.2e}, drift {drift:.2e}, "
                f"freq err {freq_err:.2e})")


def test_criterion_9_determinism(tmp_path):
    outs = []
    for run in ("one", "two"):
        out = tmp_path / f"report-{run}"
        assert main(["report", str(MG24), "--out-dir", str(out)]) == 0
        outs.append((out / "report.json").read_bytes()
                    + (out / "report.txt").read_bytes())
    report_same = outs[0] == outs[1]

    scans = []
    for run in ("one", "two"):
        out = tmp_path / f"stab-{run}"
        assert main(["stability", str(MG24), "--a", "0:1:0.05",
                     "--q", "0:1:0.05", "--out-dir", str(out)]) == 0
        scans.append((out / "stability.csv").read_bytes())
    scan_same = scans[0] == scans[1]

    ok = report_same and scan_same
    report_line(9, "report and stability outputs byte-identical", ok,
                f"(report {len(outs[0])} bytes, scan {len(scans[0])} bytes)")
