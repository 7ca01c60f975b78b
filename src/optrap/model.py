"""Domain types and Gaussian-beam field evaluation.

The trapped particle is a hydrogen-like ion: a core of mass m_n and charge
q_n plus one valence electron (m_e, q_e < 0), with total mass M and total
charge Q = q_n + q_e.  A single focused TEM00 travelling wave drives a
closed optical dipole transition at omega_eg with natural linewidth Gamma.

Everything in this module is a pure function of immutable inputs and works
in strict SI units, angular frequencies in rad/s.  Positions are measured
from the beam focus; the beam propagates along z, so the beam frame (x, y
transverse, z axial) is the lab frame.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .constants import CONST
from .units import TWO_PI

FOCUS = (0.0, 0.0, 0.0)                  # positions are measured from it


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IonSpecies:
    """A hydrogen-like ion with one valence electron.

    Parameters
    ----------
    total_mass : float
        M, kg.
    total_charge : float
        Q, C.  Zero reproduces the neutral-atom limit; sign is kept.
    valence_electron_charge : float
        q_e, C, negative by convention.
    """

    total_mass: float
    total_charge: float = 0.0
    valence_electron_charge: float = -CONST.e_charge

    def __post_init__(self):
        if not self.total_mass > CONST.m_electron:
            raise ValueError("total mass must exceed the electron mass")
        if not self.valence_electron_charge < 0:
            raise ValueError("valence electron charge must be negative")
        if not self.total_charge ** 2 < np.inf:  # the Larmor rate needs Q^2
            raise ValueError("total charge squared overflows")

    @classmethod
    def from_amu(cls, mass_u: float, charge_e: float) -> "IonSpecies":
        """Build from a mass in atomic mass units and a charge in units of e."""
        return cls(total_mass=mass_u * CONST.atomic_mass_unit,
                   total_charge=charge_e * CONST.e_charge)

    @property
    def core_mass(self) -> float:
        """m_n = M - m_e, kg."""
        return self.total_mass - CONST.m_electron

    @property
    def core_charge(self) -> float:
        """q_n = Q - q_e, C."""
        return self.total_charge - self.valence_electron_charge

    @property
    def reduced_mass(self) -> float:
        """mu = m_e m_n / M, kg."""
        return CONST.m_electron * self.core_mass / self.total_mass

    @property
    def effective_dipole_charge(self) -> float:
        """q_eff = |q_e| + (m_e/M) Q, C.

        The net charge drags the centre of mass along with the internal
        oscillation, renormalising the dipole coupling charge.  For Q = 0
        this is exactly |q_e|.
        """
        return abs(self.valence_electron_charge) + \
            (CONST.m_electron / self.total_mass) * self.total_charge


@dataclass(frozen=True)
class Transition:
    """A closed optical dipole transition of the valence electron.

    The dipole matrix element is always derived from the linewidth via the
    spontaneous-emission relation d = sqrt(3 pi eps0 hbar c^3 Gamma /
    omega_eg^3); it is never user-supplied, which keeps Gamma and d
    consistent by construction.
    """

    omega_eg: float      # rad/s
    linewidth: float     # Gamma, rad/s

    def __post_init__(self):
        if not 0 < self.omega_eg < np.inf:
            raise ValueError("omega_eg must be positive and finite")
        if not self.linewidth > 0:
            raise ValueError("linewidth must be positive")
        if not self.linewidth / self.omega_eg < 1e-3:
            raise ValueError("Gamma/omega_eg >= 1e-3: not an optical "
                             "two-level regime")

    @property
    def dipole_moment(self) -> float:
        """Transition dipole d, C m."""
        return float(np.sqrt(3.0 * np.pi * CONST.eps0 * CONST.hbar
                             * CONST.c ** 3 * self.linewidth
                             / self.omega_eg ** 3))

    @property
    def characteristic_size(self) -> float:
        """r = d/|q_e| with the elementary valence charge, m.

        Sets the multipole expansion parameter k*r (~1e-3 for a typical
        ultraviolet transition).
        """
        return self.dipole_moment / CONST.e_charge


@dataclass(frozen=True)
class LaserBeam:
    """A focused TEM00 travelling wave of total power ``power``.

    The power is required (the ``None`` default raises); the focus
    intensity follows as I0 = 2P/(pi w0^2).  The detuning is signed,
    delta = omega_L - omega_eg, with red detuning negative.
    """

    wavelength: float            # m
    waist_radius: float          # w0, m
    detuning: float              # delta, rad/s
    power: float = None          # P, W

    def __post_init__(self):
        if not self.wavelength > 0:
            raise ValueError("wavelength must be positive")
        if not self.waist_radius > self.wavelength:
            raise ValueError("waist must exceed the wavelength "
                             "(paraxial TEM00 validity)")
        if not self.rayleigh_range ** 2 < np.inf:  # axial frequency needs zR^2
            raise ValueError("Rayleigh range squared overflows")
        if self.power is None or not self.power >= 0:
            raise ValueError("beam power must be given and non-negative")

    @property
    def omega_laser(self) -> float:
        """omega_L = 2 pi c / lambda, rad/s."""
        return TWO_PI * CONST.c / self.wavelength

    @property
    def wavenumber(self) -> float:
        """k = 2 pi / lambda, 1/m."""
        return TWO_PI / self.wavelength

    @property
    def rayleigh_range(self) -> float:
        """zR = pi w0^2 / lambda, m."""
        return np.pi * self.waist_radius ** 2 / self.wavelength

    @property
    def focus_intensity(self) -> float:
        """I0 = 2P/(pi w0^2), W/m^2."""
        return 2.0 * self.power / (np.pi * self.waist_radius ** 2)

    def spot_size(self, z):
        """w(z) = w0 sqrt(1 + (z/zR)^2), m."""
        return self.waist_radius * np.sqrt(1.0 + (z / self.rayleigh_range) ** 2)

    def scaled_power(self, factor: float) -> "LaserBeam":
        """Same beam with the power multiplied by ``factor``."""
        return replace(self, power=self.power * factor)


@dataclass(frozen=True)
class TrapSetup:
    """The single input record for all analyses.

    static_curvatures are signed squared angular frequencies (rad/s)^2 per
    axis: x, y (transverse), then z (the propagation axis).  Negative
    entries describe anti-confining static fields.  The Laplace sum
    constraint on electrostatic curvatures is the caller's responsibility
    and deliberately not enforced here.
    """

    ion: IonSpecies
    transition: Transition
    beam: LaserBeam
    static_curvatures: tuple = (0.0, 0.0, 0.0)
    temperature: float = 300.0   # K, environment (blackbody bath)

    def __post_init__(self):
        if not self.temperature >= 0:
            raise ValueError("temperature must be non-negative")
        cur = np.asarray(self.static_curvatures, dtype=float)
        if cur.shape != (3,) or not np.isfinite(cur).all():
            raise ValueError("static_curvatures must be a finite 3-vector")
        object.__setattr__(self, "static_curvatures", tuple(float(v) for v in cur))
        # laser frequency, transition frequency and detuning must agree
        mismatch = self.beam.omega_laser - self.transition.omega_eg - self.beam.detuning
        if abs(mismatch) > 1e-6 * self.transition.omega_eg:
            raise ValueError("inconsistent beam/transition: omega_L - omega_eg "
                             f"differs from detuning by {mismatch:g} rad/s")

    @property
    def effective_dipole_moment(self) -> float:
        """d_eff = (q_eff/|q_e|) d, C m (charge-corrected dipole coupling)."""
        scale = self.ion.effective_dipole_charge / abs(self.ion.valence_electron_charge)
        return scale * self.transition.dipole_moment

    @cached_property
    def saturation_per_intensity(self) -> float:
        """s0 / I0 (m^2/W, grad s = (s0/I0) grad I), kept once computed."""
        return saturation_at(self, FOCUS) / self.beam.focus_intensity


def setup_from_beam(ion: IonSpecies, beam: LaserBeam, linewidth: float,
                    static_curvatures=(0.0, 0.0, 0.0),
                    temperature: float = 300.0) -> TrapSetup:
    """Assemble a TrapSetup, deriving omega_eg from the beam and detuning."""
    transition = Transition(omega_eg=beam.omega_laser - beam.detuning,
                            linewidth=linewidth)
    return TrapSetup(ion=ion, transition=transition, beam=beam,
                     static_curvatures=static_curvatures,
                     temperature=temperature)


# ---------------------------------------------------------------------------
# beam geometry and fields
# ---------------------------------------------------------------------------

def intensity_at(beam: LaserBeam, position):
    """TEM00 intensity I(r, z) = 2P/(pi w(z)^2) exp(-2 r^2/w(z)^2), W/m^2.

    ``position`` is measured from the focus; accepts shape (3,) or (..., 3).
    """
    pos = np.asarray(position, dtype=float)
    z = pos[..., 2]
    r2 = np.maximum(np.sum(pos * pos, axis=-1) - z * z, 0.0)
    zr = beam.rayleigh_range
    w2 = beam.waist_radius ** 2 * (1.0 + (z / zr) ** 2)
    return 2.0 * beam.power / (np.pi * w2) * np.exp(-2.0 * r2 / w2)


def intensity_gradient_at(beam: LaserBeam, position):
    """Analytic gradient of :func:`intensity_at`, shape (..., 3), W/m^3."""
    pos = np.asarray(position, dtype=float)
    z = pos[..., 2]
    r_vec = pos * (1.0, 1.0, 0.0)
    r2 = np.sum(r_vec * r_vec, axis=-1)
    zr = beam.rayleigh_range
    w0sq = beam.waist_radius ** 2
    w2 = w0sq * (1.0 + (z / zr) ** 2)
    inten = 2.0 * beam.power / (np.pi * w2) * np.exp(-2.0 * r2 / w2)
    # transverse: dI/dr = -4 r I / w^2; axial via dw^2/dz = 2 w0^2 z / zR^2
    grad = (-4.0 * inten / w2)[..., np.newaxis] * r_vec
    dw2 = 2.0 * w0sq * z / zr ** 2
    grad[..., 2] = inten * dw2 * (2.0 * r2 - w2) / w2 ** 2
    return grad


@dataclass(frozen=True)
class FieldAmplitudes:
    """Envelope peak amplitudes of the oscillation at omega_L."""

    electric: float        # E_L, V/m
    magnetic: float        # B_L = E_L/c, T
    vector_potential: float  # A_L = E_L/omega_L, T m


def field_amplitudes_at(setup: TrapSetup, position) -> FieldAmplitudes:
    """Plane-wave envelope amplitudes from the local intensity.

    E_L = sqrt(2 I / (eps0 c)); the identities E_L = c B_L = omega_L A_L
    hold exactly.
    """
    inten = intensity_at(setup.beam, position)
    e_amp = np.sqrt(2.0 * inten / (CONST.eps0 * CONST.c))
    return FieldAmplitudes(electric=e_amp,
                           magnetic=e_amp / CONST.c,
                           vector_potential=e_amp / setup.beam.omega_laser)


def rabi_frequency_at(setup: TrapSetup, position):
    """Rabi frequency Omega(R) = d_eff E_L(R) / hbar, rad/s.

    Polarization is modelled as a scalar overlap factor of 1 (circular
    polarization on a closed transition); the matrix-element projection is
    absorbed into the dipole moment.
    """
    amps = field_amplitudes_at(setup, position)
    return setup.effective_dipole_moment * amps.electric / CONST.hbar


def saturation_at(setup: TrapSetup, position):
    """Saturation parameter s(R) = (Omega^2/2) / (delta^2 + Gamma^2/4)."""
    omega = rabi_frequency_at(setup, position)
    delta = setup.beam.detuning
    gamma = setup.transition.linewidth
    return 0.5 * omega ** 2 / (delta ** 2 + 0.25 * gamma ** 2)
