"""Blackbody heating of the charged harmonic oscillator.

At motional frequencies of 10 kHz .. 1 MHz the resonant thermal modes
have wavelengths enormously larger than the ion's excursion, so the field
is spatially constant and the net charge couples like a point dipole
Q R.  Stimulated absorption from the thermal occupation n(omega0) of the
resonant modes then heats the motion at

    Gamma' = Gamma_Larmor * nbar,
    Gamma_Larmor = Q^2 omega0^2 / (6 pi eps0 M c^3),

with Gamma_Larmor the classical dipole emission rate of the oscillating
charge.  The emission prefactor is isolated in one place and can be
rescaled (``prefactor_multiplier``) to explore alternative conventions,
e.g. a polarization-count factor; the published estimate for the
reference experiment (~1e-7 Hz at room temperature) sits a factor of a
few tens above this plain Larmor form, and that discrepancy is reported,
not hidden.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import CONST
from .errors import FrequencyRangeWarning, PhysicsError
from .model import TrapSetup

RECOMMENDED_RANGE = (2.0 * np.pi * 10e3, 2.0 * np.pi * 1e6)  # rad/s


def mean_occupation(omega0: float, temperature: float) -> float:
    """Bose occupation 1/(exp(hbar w / kB T) - 1) of the resonant modes.

    Exact Bose factor; at room temperature and trap frequencies this is
    within 1e-7 of the Rayleigh-Jeans limit kB T / (hbar w).  kB T = 0 gives 0.
    Past the float range nbar is 0.0 where expm1(hbar w / kB T) overflows
    and inf where 1/expm1 overflows or the ratio underflows to 0, without a
    numpy warning; :func:`heating_rate` refuses a charged ion's inf rate.
    """
    if not omega0 > 0:
        raise ValueError("omega0 must be positive")
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if CONST.kB * temperature == 0.0:     # T = 0, or kB T underflows
        return 0.0
    x = CONST.hbar * omega0 / (CONST.kB * temperature)
    with np.errstate(over="ignore", divide="ignore"):
        return float(1.0 / np.expm1(x))


def larmor_emission_rate(charge: float, mass: float, omega0: float,
                         prefactor_multiplier: float = 1.0) -> float:
    """Classical dipole emission rate Q^2 w^2/(6 pi eps0 M c^3), 1/s."""
    return prefactor_multiplier * charge ** 2 * omega0 ** 2 / (
        6.0 * np.pi * CONST.eps0 * mass * CONST.c ** 3)


@dataclass(frozen=True)
class HeatingEstimate:
    mean_occupation: float
    larmor_rate: float                    # 1/s
    heating_rate: float                   # Gamma', 1/s
    heating_timescale: float              # 1/Gamma', s (inf for neutrals)
    flags: tuple = ()


def heating_rate(setup: TrapSetup, omega0: float,
                 prefactor_multiplier: float = 1.0) -> HeatingEstimate:
    """Stimulated heating of the motional mode at omega0 by the thermal bath.

    Outside the recommended 2pi x (10 kHz .. 1 MHz) band the estimate is
    still returned, flagged and with a :class:`FrequencyRangeWarning`.
    A neutral particle (Q = 0) decouples: rate 0, flagged.  Raises
    :class:`PhysicsError` when a charged ion's rate is not finite.
    """
    flags = []
    if not (RECOMMENDED_RANGE[0] <= omega0 <= RECOMMENDED_RANGE[1]):
        flags.append("outside_recommended_frequency_range")
        warnings.warn(
            f"omega0 = {omega0:.3e} rad/s outside the recommended "
            "2pi x (10 kHz .. 1 MHz) band", FrequencyRangeWarning,
            stacklevel=2)
    nbar = mean_occupation(omega0, setup.temperature)
    charge = setup.ion.total_charge
    if charge == 0.0:
        # exactly 0, also where nbar or omega0^2 would overflow
        flags.append("neutral_particle")
        larmor = rate = 0.0
    else:
        larmor = larmor_emission_rate(charge, setup.ion.total_mass, omega0,
                                      prefactor_multiplier)
        rate = larmor * nbar
        if not np.isfinite(rate):
            raise PhysicsError(
                f"the blackbody heating rate at omega0 = {omega0:.4g} rad/s "
                f"and T = {setup.temperature:.4g} K is not finite")
    return HeatingEstimate(
        mean_occupation=nbar,
        larmor_rate=float(larmor),
        heating_rate=float(rate),
        heating_timescale=float(1.0 / rate) if rate > 0 else float("inf"),
        flags=tuple(flags))
