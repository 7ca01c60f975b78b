"""Domain types, Gaussian-beam intensity and the saturation parameter.

The trapped particle is a hydrogen-like ion: a core of mass m_n and charge
q_n plus one valence electron (m_e, q_e = -e), with total mass M and total
charge Q = q_n + q_e.  A single focused TEM00 travelling wave drives a
closed dipole transition at omega_eg = omega_L - delta with linewidth Gamma.

Everything in this module is a pure function of immutable inputs and works
in strict SI units, angular frequencies in rad/s.  Positions are measured
from the beam focus; the beam propagates along z, so the beam frame (x, y
transverse, z axial) is the lab frame.

The setup computes the focus chain I0 -> (E0, B0, A0) -> Omega0 -> s0 ->
s0/I0 once.  s is proportional to Omega^2, so to I: s(R) = (s0/I0) I(R).

The profile takes one (3,) point or a (..., 3) batch through one code
path: ``x, y, z = pos.T`` makes one point run on float64 scalars, not 0-d
arrays, and squares of point values are products (a scalar's ``** 2`` is
libm's pow, an array's is x*x), so a point has the bits of its batch row.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import CONST
from .units import TWO_PI

# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IonSpecies:
    """A hydrogen-like ion with one valence electron of charge q_e = -e.

    Parameters
    ----------
    total_mass : float
        M, kg.
    total_charge : float
        Q, C.  Zero reproduces the neutral-atom limit; sign is kept.
    """

    total_mass: float
    total_charge: float = 0.0

    def __post_init__(self):
        if not self.total_mass > CONST.m_electron:
            raise ValueError("total mass must exceed the electron mass")
        if not self.total_charge ** 2 < np.inf:  # the Larmor rate needs Q^2
            raise ValueError("total charge squared overflows")

    @classmethod
    def from_amu(cls, mass_u: float, charge_e: float) -> "IonSpecies":
        """Build from a mass in atomic mass units and a charge in units of e."""
        return cls(total_mass=mass_u * CONST.atomic_mass_unit,
                   total_charge=charge_e * CONST.e_charge)

    @property
    def reduced_mass(self) -> float:
        """mu = m_e m_n / M with the core mass m_n = M - m_e, kg."""
        return CONST.m_electron * (self.total_mass - CONST.m_electron) \
            / self.total_mass

    @property
    def effective_dipole_charge(self) -> float:
        """q_eff = |q_e| + (m_e/M) Q, C.

        The net charge drags the centre of mass along with the internal
        oscillation, renormalising the dipole coupling charge.  For Q = 0
        this is exactly |q_e| = e.
        """
        return CONST.e_charge + \
            (CONST.m_electron / self.total_mass) * self.total_charge


@dataclass(frozen=True)
class LaserBeam:
    """A focused TEM00 travelling wave of total power ``power``.

    The focus intensity follows as I0 = 2P/(pi w0^2).  The detuning is
    signed, delta = omega_L - omega_eg, with red detuning negative.
    """

    wavelength: float            # m
    waist_radius: float          # w0, m
    detuning: float              # delta, rad/s
    power: float                 # P, W

    def __post_init__(self):
        if not self.wavelength > 0:
            raise ValueError("wavelength must be positive")
        if not self.waist_radius > self.wavelength:
            raise ValueError("waist must exceed the wavelength "
                             "(paraxial TEM00 validity)")
        if not self.rayleigh_range ** 2 < np.inf:  # axial frequency needs zR^2
            raise ValueError("Rayleigh range squared overflows")
        if not self.power >= 0:
            raise ValueError("beam power must be non-negative")

    @property
    def omega_laser(self) -> float:
        """omega_L = 2 pi c / lambda, rad/s."""
        return TWO_PI * CONST.c / self.wavelength

    @property
    def wavenumber(self) -> float:
        """k = 2 pi / lambda, 1/m."""
        return TWO_PI / self.wavelength

    @cached_property
    def rayleigh_range(self) -> float:
        """zR = pi w0^2 / lambda, m."""
        return np.pi * self.waist_radius ** 2 / self.wavelength

    @cached_property
    def focus_intensity(self) -> float:
        """I0 = 2P/(pi w0^2), W/m^2."""
        return 2.0 * self.power / (np.pi * self.waist_radius ** 2)


@dataclass(frozen=True)
class FieldAmplitudes:
    """Envelope peak amplitudes of the oscillation at omega_L."""

    electric: float        # E_L, V/m
    magnetic: float        # B_L = E_L/c, T
    vector_potential: float  # A_L = E_L/omega_L, T m


@dataclass(frozen=True)
class TrapSetup:
    """The single input record for all analyses.

    The beam drives a closed dipole transition of natural linewidth Gamma
    at omega_eg = omega_L - delta; the dipole moment d follows from Gamma
    by the spontaneous-emission relation, so the two always agree.

    static_curvatures are signed squared angular frequencies (rad/s)^2 per
    axis: x, y (transverse), then z (the propagation axis).  Negative
    entries describe anti-confining static fields.  The Laplace sum
    constraint on electrostatic curvatures is the caller's responsibility
    and deliberately not enforced here.
    """

    ion: IonSpecies
    beam: LaserBeam
    linewidth: float             # Gamma, rad/s
    static_curvatures: tuple = (0.0, 0.0, 0.0)
    temperature: float = 300.0   # K, environment (blackbody bath)

    def __post_init__(self):
        if not 0 < self.omega_eg < np.inf:
            raise ValueError("omega_eg must be positive and finite")
        if not self.linewidth > 0:
            raise ValueError("linewidth must be positive")
        if not self.linewidth / self.omega_eg < 1e-3:
            raise ValueError("Gamma/omega_eg >= 1e-3: not an optical "
                             "two-level regime")
        if not self.temperature >= 0:
            raise ValueError("temperature must be non-negative")
        cur = np.asarray(self.static_curvatures, dtype=float)
        if cur.shape != (3,) or not np.isfinite(cur).all():
            raise ValueError("static_curvatures must be a finite 3-vector")
        object.__setattr__(self, "static_curvatures", tuple(float(v) for v in cur))

    @property
    def omega_eg(self) -> float:
        """omega_eg = omega_L - delta, rad/s."""
        return self.beam.omega_laser - self.beam.detuning

    @property
    def dipole_moment(self) -> float:
        """d = sqrt(3 pi eps0 hbar c^3 Gamma / omega_eg^3), C m."""
        return float(np.sqrt(3.0 * np.pi * CONST.eps0 * CONST.hbar
                             * CONST.c ** 3 * self.linewidth
                             / self.omega_eg ** 3))

    @property
    def characteristic_size(self) -> float:
        """r = d/|q_e| = d/e, m.

        Sets the multipole expansion parameter k*r (~1e-3 for a typical
        ultraviolet transition).
        """
        return self.dipole_moment / CONST.e_charge

    @cached_property
    def effective_dipole_moment(self) -> float:
        """d_eff = (q_eff/|q_e|) d, C m (charge-corrected dipole coupling)."""
        scale = self.ion.effective_dipole_charge / CONST.e_charge
        return scale * self.dipole_moment

    @cached_property
    def focus_fields(self) -> FieldAmplitudes:
        """Envelope amplitudes at the focus: E0 = sqrt(2 I0 / (eps0 c)),
        with E0 = c B0 = omega_L A0 exactly."""
        e_amp = np.sqrt(2.0 * self.beam.focus_intensity
                        / (CONST.eps0 * CONST.c))
        return FieldAmplitudes(electric=e_amp,
                               magnetic=e_amp / CONST.c,
                               vector_potential=e_amp / self.beam.omega_laser)

    @cached_property
    def rabi_frequency(self) -> float:
        """Omega0 = d_eff E0 / hbar at the focus, rad/s; the polarization
        overlap is 1 (circular light on a closed transition)."""
        return self.effective_dipole_moment * self.focus_fields.electric \
            / CONST.hbar

    @cached_property
    def saturation_at_focus(self) -> float:
        """s0 = (Omega0^2/2) / (delta^2 + Gamma^2/4); the depth and the
        optical curvatures follow from it."""
        omega = self.rabi_frequency
        return 0.5 * (omega * omega) / (self.beam.detuning ** 2
                                        + 0.25 * self.linewidth ** 2)

    @cached_property
    def saturation_per_intensity(self) -> float:
        """s0/I0, m^2/W: the scale of s(R) and of grad s.  A dark beam
        (I0 = 0) has none: its s0/I0 counts as 0."""
        i0 = self.beam.focus_intensity
        return self.saturation_at_focus / i0 if i0 else 0.0


# ---------------------------------------------------------------------------
# beam geometry and saturation
# ---------------------------------------------------------------------------

def _gaussian_profile(beam: LaserBeam, x, y, z):
    """(r^2, w(z)^2, I) of the TEM00 profile at x, y, z = pos.T."""
    axial = z / beam.rayleigh_range
    r2 = x * x + y * y
    w2 = beam.waist_radius ** 2 * (1.0 + axial * axial)
    return r2, w2, 2.0 * beam.power / (np.pi * w2) * np.exp(-2.0 * r2 / w2)


def intensity_at(beam: LaserBeam, position):
    """TEM00 intensity I(r, z) = 2P/(pi w(z)^2) exp(-2 r^2/w(z)^2), W/m^2.

    ``position`` is measured from the focus; accepts shape (3,) or (..., 3).
    """
    return _gaussian_profile(beam, *np.asarray(position, dtype=float).T)[2].T


def intensity_gradient_at(beam: LaserBeam, position, with_intensity=False):
    """Analytic gradient of :func:`intensity_at`, shape (..., 3), W/m^3;
    ``with_intensity`` gives (I, grad I) from the one profile evaluation."""
    pos = np.asarray(position, dtype=float)
    x, y, z = pos.T
    r2, w2, inten = _gaussian_profile(beam, x, y, z)
    # transverse: dI/dr = -4 r I / w^2; axial via dw^2/dz = 2 w0^2 z / zR^2
    radial = -4.0 * inten / w2
    dw2 = 2.0 * beam.waist_radius ** 2 * z / beam.rayleigh_range ** 2
    grad = np.empty(pos.shape)
    grad[..., 0] = (radial * x).T
    grad[..., 1] = (radial * y).T
    grad[..., 2] = (inten * dw2 * (2.0 * r2 - w2) / (w2 * w2)).T
    return (inten.T, grad) if with_intensity else grad


def saturation_at(setup: TrapSetup, position):
    """Saturation parameter s(R) = (s0/I0) I(R), s being proportional to I."""
    return setup.saturation_per_intensity * intensity_at(setup.beam, position)
