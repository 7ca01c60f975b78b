"""The correction ledger and its individual estimators."""

from pathlib import Path

import numpy as np
import pytest

from optrap import (IonSpecies, corrections_table, field_amplitudes_at,
                    monopole_drive, multipole_ratios, relativistic_ratios)
from optrap.config import load_config
from optrap.constants import CONST

from conftest import DEPTH, make_reference_setup

FOCUS = (0.0, 0.0, 0.0)
REPO = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# effective charge
# ---------------------------------------------------------------------------

def test_effective_charge_limits():
    e = CONST.e_charge
    neutral = IonSpecies.from_amu(24.0, 0.0)
    assert neutral.effective_dipole_charge == e
    cation = IonSpecies.from_amu(24.0, 1.0)
    correction = (cation.effective_dipole_charge - e) / e
    assert correction == pytest.approx(CONST.m_electron / cation.total_mass,
                                       rel=1e-12)
    assert correction == pytest.approx(2.2857e-5, rel=1e-3)
    anion = IonSpecies.from_amu(24.0, -1.0)
    assert anion.effective_dipole_charge < e


# ---------------------------------------------------------------------------
# monopole drive
# ---------------------------------------------------------------------------

def test_monopole_drive_reference(mg_setup):
    drive = monopole_drive(mg_setup)
    # independent chain: (Q A)^2/2M with A = E_L / omega_L
    amps = field_amplitudes_at(mg_setup, FOCUS)
    expected = (mg_setup.ion.total_charge * amps.vector_potential) ** 2 \
        / (2 * mg_setup.ion.total_mass)
    assert drive.drive_energy == pytest.approx(expected, rel=1e-12)
    # hand-evaluated: 2.0e-32 J ~ kB x 1.45 nK, within the published
    # "below kB x 1 nK" bound to a factor of 3
    assert drive.drive_energy == pytest.approx(1.997e-32, rel=1e-3)
    assert drive.equivalent_temperature == pytest.approx(1.45e-9, rel=0.01)
    assert drive.equivalent_temperature < 3e-9
    assert drive.ratio_to_depth == pytest.approx(2.893e-8, rel=1e-3)
    assert 1e-8 <= drive.ratio_to_depth <= 1e-7


def test_monopole_drive_zero_charge(neutral_setup):
    drive = monopole_drive(neutral_setup)
    assert drive.drive_energy == 0.0
    assert drive.ratio_to_depth == 0.0


def test_monopole_ratio_intensity_invariant(mg_setup):
    # both (QA)^2 and U0 are proportional to intensity
    base = monopole_drive(mg_setup).ratio_to_depth
    doubled = monopole_drive(
        make_reference_setup(power=2 * mg_setup.beam.power))
    assert doubled.ratio_to_depth == pytest.approx(base, rel=1e-9)
    assert doubled.drive_energy == pytest.approx(
        2 * monopole_drive(mg_setup).drive_energy, rel=1e-12)


# ---------------------------------------------------------------------------
# multipole ratios
# ---------------------------------------------------------------------------

def test_multipole_ratios_reference(mg_setup):
    ratios = multipole_ratios(mg_setup)
    assert ratios.kr == pytest.approx(1.9587e-3, rel=1e-3)
    assert ratios.octupole_ratio == pytest.approx(ratios.kr ** 2, rel=1e-12)
    assert 1e-6 <= ratios.octupole_ratio <= 1e-5
    # (kr) Omega / omega_L lands in the published 1e-8 decade
    assert ratios.quadrupole_amplitude == pytest.approx(6.468e-8, rel=1e-3)
    assert -9 < np.log10(ratios.quadrupole_amplitude) < -7
    # P/(Mc) ~ 2e-8 suppressed further by Gamma/|delta|
    assert ratios.p_dot_a_ratio == pytest.approx(2.618e-12, rel=1e-3)


def test_multipole_long_wavelength_limit(mg_setup):
    # k -> 0 at fixed dipole size: scale the wavelength x10 and adjust
    # Gamma ~ omega_eg^3 so d (hence r_char) stays put; kr then falls as
    # 1/lambda and the octupole ratio as 1/lambda^2
    from optrap import LaserBeam, setup_from_beam
    beam = LaserBeam(wavelength=10 * mg_setup.beam.wavelength,
                     waist_radius=10 * mg_setup.beam.waist_radius,
                     detuning=mg_setup.beam.detuning,
                     power=mg_setup.beam.power)
    omega_eg_scaled = beam.omega_laser - beam.detuning
    gamma_scaled = mg_setup.transition.linewidth * (
        omega_eg_scaled / mg_setup.transition.omega_eg) ** 3
    long_wl = setup_from_beam(mg_setup.ion, beam, gamma_scaled)
    assert long_wl.transition.dipole_moment == pytest.approx(
        mg_setup.transition.dipole_moment, rel=1e-12)
    near = multipole_ratios(mg_setup)
    far = multipole_ratios(long_wl)
    assert far.kr == pytest.approx(near.kr / 10, rel=1e-12)
    assert far.octupole_ratio == pytest.approx(near.octupole_ratio / 100,
                                               rel=1e-12)


# ---------------------------------------------------------------------------
# relativistic ratios
# ---------------------------------------------------------------------------

def test_relativistic_ratios_reference(mg_setup):
    rel = relativistic_ratios(mg_setup)
    # (g mu_B B/2)/(hbar omega_L) squared with B = 5.59e-3 T
    amps = field_amplitudes_at(mg_setup, FOCUS)
    expected = (CONST.bohr_magneton * amps.magnetic
                / (CONST.hbar * mg_setup.beam.omega_laser)) ** 2
    assert rel.spin_flip_probability == pytest.approx(expected, rel=1e-12)
    assert rel.spin_flip_probability == pytest.approx(5.336e-15, rel=1e-3)
    assert 1e-15 <= rel.spin_flip_probability <= 1e-14

    assert rel.spin_orbit_ratio == CONST.fine_structure_alpha ** 2 / 4
    assert 1e-5 <= rel.spin_orbit_ratio <= 2e-5

    # (d B)^2/(8 mu hbar): about 2pi x 1 Hz
    assert rel.quadratic_field_shift == pytest.approx(7.947, rel=1e-3)
    shift_hz = rel.quadratic_field_shift / (2 * np.pi)
    assert shift_hz == pytest.approx(1.265, rel=1e-3)
    assert 0.3 <= shift_hz <= 1.7


def test_relativistic_ratios_intensity_scaling(mg_setup):
    base = relativistic_ratios(mg_setup)
    doubled = relativistic_ratios(
        make_reference_setup(power=2 * mg_setup.beam.power))
    assert doubled.spin_flip_probability == pytest.approx(
        2 * base.spin_flip_probability, rel=1e-12)
    assert doubled.quadratic_field_shift == pytest.approx(
        2 * base.quadratic_field_shift, rel=1e-12)
    assert doubled.spin_orbit_ratio == base.spin_orbit_ratio


# ---------------------------------------------------------------------------
# the assembled ledger
# ---------------------------------------------------------------------------

def test_ledger_rows_within_a_decade_of_published(mg_setup):
    ledger = corrections_table(mg_setup)
    # the effective-charge row is the known decade-flag case: computed
    # m_e/M = 2.3e-5 against the published 1e-4; all others within x10
    for entry in ledger.main_rows():
        log_gap = abs(np.log10(entry.ratio_to_u0 / entry.paper_order))
        assert log_gap <= 1.0, entry.name


def test_ledger_sorted_matches_published_row_order(mg_setup):
    ledger = corrections_table(mg_setup)
    main = set(ledger.MAIN_ROWS)
    by_ratio = [e.name for e in ledger.sorted_by_ratio() if e.name in main]
    assert by_ratio == list(ledger.MAIN_ROWS)


def test_ledger_neutral_limit(mg_setup, neutral_setup):
    charged = {e.name: e for e in corrections_table(mg_setup).entries}
    neutral = {e.name: e for e in corrections_table(neutral_setup).entries}
    # charge-tagged rows vanish exactly
    for name in ("effective_charge_correction", "monopole_coupling",
                 "blackbody_heating_per_s"):
        assert neutral[name].value == 0.0
    # intensity-anchored, charge-independent entries are bit-identical
    # (same beam power; q_eff only enters through the internal dipole)
    for name in ("octupole_correction", "spin_orbit_coupling",
                 "spin_flip_probability", "quadratic_field_shift_hz"):
        assert neutral[name].value == charged[name].value
    # micromotion ratio shifts only through U0's q_eff dependence (~5e-5)
    assert neutral["micromotion_amplitude_ratio"].value == pytest.approx(
        charged["micromotion_amplitude_ratio"].value, rel=1e-4)


def test_ledger_ratios_finite_nonnegative(mg_setup):
    for entry in corrections_table(mg_setup).entries:
        assert np.isfinite(entry.ratio_to_u0)
        assert entry.ratio_to_u0 >= 0.0
        assert entry.paper_order > 0


def test_ledger_csv_roundtrip(mg_setup):
    import csv
    import io
    ledger = corrections_table(mg_setup)
    text = ledger.to_csv_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(ledger.entries)
    assert rows[0]["name"] == "effective_charge_correction"
    assert float(rows[0]["ratio_to_U0"]) == pytest.approx(
        CONST.m_electron / mg_setup.ion.total_mass, rel=1e-8)
    for row in rows:
        assert set(row) == {"name", "formula", "value", "ratio_to_U0",
                            "paper_order", "section"}


def test_ledger_csv_pinned_bytes():
    # the ledger CSV is pinned at 9 significant digits
    setup = load_config(REPO / "demos" / "mg24.json").setup
    assert corrections_table(setup).to_csv_text().encode("utf-8") == (
        REPO / "tests" / "data" / "ledger_mg24.csv").read_bytes()


def test_ledger_json(mg_setup):
    import json
    ledger = corrections_table(mg_setup)
    payload = json.loads(json.dumps({"depth_J": ledger.depth,
                                     "entries": ledger.to_json_dict()}))
    assert payload["depth_J"] == pytest.approx(DEPTH, rel=1e-12)
    names = [e["name"] for e in payload["entries"]]
    assert "monopole_coupling" in names
