"""Charge and multipole corrections to pure dipole trapping.

Every term beyond the electric-dipole coupling -d.E is quantified here as
a closed-form order-of-magnitude estimator, relative to the trap depth U0
where that is meaningful:

* effective-charge correction to the dipole, m_e |Q| / (M |q_e|);
* monopole coupling -Q P.A/M, driving micromotion at the laser frequency
  with typical energy (Q A)^2 / (2M);
* electric quadrupole/octupole terms of the multipole expansion, entering
  at (kr) Omega/omega_L (off-resonant transition amplitude) and (kr)^2
  (potential-shape correction);
* relativistic couplings: laser-field spin flips, the laser term in the
  spin-orbit coupling, and the quadratic (d x B)^2/(8 mu) field shift.

Each ledger entry records the computed value next to the published
order-of-magnitude estimate for the reference single-ion experiment, so
discrepancies stay visible instead of being absorbed.
"""

from dataclasses import dataclass

import numpy as np

from .constants import CONST
from .errors import PhysicsError
from .model import TrapSetup
from .dipole_trap import trap_depth, trap_summary
from . import blackbody as _blackbody
from . import mathieu_floquet as _mathieu


@dataclass(frozen=True)
class MonopoleDrive:
    """Micromotion-like drive of the net charge by the laser field."""

    drive_energy: float            # (Q A_L)^2 / 2M at the focus, J
    ratio_to_depth: float          # drive_energy / U0
    equivalent_temperature: float  # drive_energy / kB, K


def monopole_drive(setup: TrapSetup) -> MonopoleDrive:
    """Typical energy of the charge-monopole driven oscillation.

    The coupling -Q P.A/M turns the harmonically trapped charge into a
    driven oscillator at the laser frequency; the associated kinetic
    energy scale is (Q A)^2/(2M).  Both this energy and U0 are linear in
    intensity, so the ratio is intensity-independent.
    """
    amps = setup.focus_fields
    q = setup.ion.total_charge
    energy = (q * amps.vector_potential) ** 2 / (2.0 * setup.ion.total_mass)
    depth = trap_depth(setup)
    return MonopoleDrive(drive_energy=float(energy),
                         ratio_to_depth=float(energy / depth),
                         equivalent_temperature=float(energy / CONST.kB))


@dataclass(frozen=True)
class MultipoleRatios:
    kr: float                    # multipole expansion parameter
    quadrupole_amplitude: float  # (kr) Omega / omega_L
    octupole_ratio: float        # (kr)^2
    p_dot_a_ratio: float         # P/(Mc) * Gamma/|delta|


def multipole_ratios(setup: TrapSetup) -> MultipoleRatios:
    """Dimensionless sizes of the higher multipole couplings.

    The quadrupole term connects equal-parity states and is far
    off-resonant; first-order processes have transition amplitudes of
    order (kr) Omega/omega_L.  The octupole gives the leading resonant
    correction to the potential, a relative (kr)^2.  The P.(d x B)/M term
    is suppressed by P/(Mc) and additionally by Gamma/|delta| because only
    the out-of-phase dipole component contributes.  P is sqrt(2 M U0),
    the momentum of an ion at the full trap depth.
    """
    kr = setup.beam.wavenumber * setup.characteristic_size
    omega = setup.rabi_frequency
    mass = setup.ion.total_mass
    p_depth = np.sqrt(2.0 * mass * trap_depth(setup))
    phase_factor = setup.linewidth / abs(setup.beam.detuning)
    return MultipoleRatios(
        kr=float(kr),
        quadrupole_amplitude=float(kr * omega / setup.beam.omega_laser),
        octupole_ratio=float(kr ** 2),
        p_dot_a_ratio=float(p_depth / (mass * CONST.c) * phase_factor),
    )


@dataclass(frozen=True)
class RelativisticRatios:
    spin_flip_probability: float   # laser B-field spin transitions
    spin_orbit_ratio: float        # laser term in spin-orbit vs -d.E
    quadratic_field_shift: float   # (d B_L)^2/(8 mu hbar), rad/s


def relativistic_ratios(setup: TrapSetup) -> RelativisticRatios:
    """Magnitudes of the relativistic corrections.

    spin_flip_probability: the spin coupling g_e mu_B S.B/hbar oscillates
    at omega_L, far above every other scale; first-order perturbation
    theory gives a transition probability (g_e mu_B B_L / (2 hbar
    omega_L))^2 with matrix element g_e mu_B B_L/2 between spin states
    (g_e = 2).

    spin_orbit_ratio: the laser electric field enters the spin-orbit term
    sigma.(E x p) q_e hbar/(2 m_e c)^2; with the hydrogenic estimates
    p ~ alpha m_e c this reduces to alpha^2/4 relative to -d.E.

    quadratic_field_shift: the (d x B)^2/(8 mu) term shifts the transition
    frequency by an intensity-dependent amount, here expressed as an
    angular frequency.
    """
    amps = setup.focus_fields
    g_e = 2.0
    spin_flip = (g_e * CONST.bohr_magneton * amps.magnetic
                 / (2.0 * CONST.hbar * setup.beam.omega_laser)) ** 2
    spin_orbit = CONST.fine_structure_alpha ** 2 / 4.0
    d = setup.dipole_moment
    shift = (d * amps.magnetic) ** 2 / (8.0 * setup.ion.reduced_mass * CONST.hbar)
    return RelativisticRatios(spin_flip_probability=float(spin_flip),
                              spin_orbit_ratio=float(spin_orbit),
                              quadratic_field_shift=float(shift))


@dataclass(frozen=True)
class LedgerEntry:
    """One correction, computed value next to the published order."""

    name: str
    formula: str
    value: float          # native units: see name suffix for non-ratios
    ratio_to_u0: float    # dimensionless comparison weight, >= 0
    paper_order: float    # published order of magnitude, never overwritten
    section: str          # thematic grouping tag


@dataclass(frozen=True)
class CorrectionLedger:
    """Ledger of corrections to the dipolar trapping Hamiltonian."""

    entries: tuple
    depth: float  # U0 used for the ratios, J
    heating: _blackbody.HeatingEstimate  # behind the blackbody row

    def entry(self, name: str) -> LedgerEntry:
        for item in self.entries:
            if item.name == name:
                return item
        raise KeyError(name)

    def sorted_by_ratio(self):
        return tuple(sorted(self.entries, key=lambda en: en.ratio_to_u0,
                            reverse=True))

    def to_json_dict(self) -> list:
        return [dict(vars(entry)) for entry in self.entries]


def corrections_table(setup: TrapSetup,
                      blackbody_prefactor: float = 1.0) -> CorrectionLedger:
    """Assemble the full correction ledger for a trap configuration.

    The four headline rows are dimensionless energy ratios to U0.
    Auxiliary rows keep their natural units (suffix in the name); their
    ``ratio_to_u0`` is the value itself for dimensionless quantities and
    hbar-weighted for rates/shifts, so every entry carries a finite,
    non-negative sort weight.  A depth that underflows to 0 raises
    :class:`PhysicsError`.
    """
    summary = trap_summary(setup)  # BlueDetunedUnsupported if delta >= 0
    depth = summary.depth
    if not depth > 0.0:
        raise PhysicsError("the correction ledger needs U0 > 0; the trap "
                           f"depth is {depth:g} J")
    ion = setup.ion
    qeff_ratio = (CONST.m_electron * abs(ion.total_charge)
                  / (ion.total_mass * CONST.e_charge))
    mono = monopole_drive(setup)
    multi = multipole_ratios(setup)
    rel = relativistic_ratios(setup)
    heating = _blackbody.heating_rate(setup, summary.omega0,
                                      prefactor_multiplier=blackbody_prefactor)
    mm_ratio = _mathieu.micromotion_ratio_optical(setup, axis=0)

    shift_hz = rel.quadratic_field_shift / (2.0 * np.pi)
    entries = (
        LedgerEntry("effective_charge_correction", "m_e |Q| / (M |q_e|)",
                    qeff_ratio, qeff_ratio, 1e-4, "effective-dipole"),
        LedgerEntry("spin_orbit_coupling", "alpha^2 / 4",
                    rel.spin_orbit_ratio, rel.spin_orbit_ratio, 1e-5,
                    "relativistic"),
        LedgerEntry("octupole_correction", "(k r)^2",
                    multi.octupole_ratio, multi.octupole_ratio, 1e-6,
                    "multipole"),
        LedgerEntry("monopole_coupling", "(Q A)^2 / (2 M U0)",
                    mono.ratio_to_depth, mono.ratio_to_depth, 1e-8,
                    "monopole"),
        LedgerEntry("spin_flip_probability",
                    "(g_e mu_B B_L / (2 hbar omega_L))^2",
                    rel.spin_flip_probability, rel.spin_flip_probability,
                    1e-15, "spin"),
        LedgerEntry("quadratic_field_shift_hz", "(d B_L)^2 / (8 mu hbar)",
                    shift_hz,
                    rel.quadratic_field_shift * CONST.hbar / depth,
                    1.0, "field-quadratic"),
        LedgerEntry("blackbody_heating_per_s",
                    "Q^2 omega0^2 nbar / (6 pi eps0 M c^3)",
                    heating.heating_rate,
                    heating.heating_rate * CONST.hbar / depth,
                    1e-7, "thermal-radiation"),
        LedgerEntry("micromotion_amplitude_ratio", "|q|/2 = (omega0/omega_L)^2/4",
                    mm_ratio, mm_ratio, 1e-20, "optical-micromotion"),
    )
    return CorrectionLedger(entries=entries, depth=depth, heating=heating)

