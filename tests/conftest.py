"""Shared fixtures: the reference 24Mg+ dipole-trap configuration."""

import numpy as np
import pytest

from optrap import IonSpecies, LaserBeam, TrapSetup, errors, power_for_depth
from optrap.constants import CONST

# reference trap: 24Mg+, 280 nm laser, waist 7 um, detuning -2pi x 300 GHz,
# linewidth 2pi x 40 MHz, depth kB x 50 mK, room-temperature environment.
WAVELENGTH = 280e-9
WAIST = 7e-6
DETUNING = -2 * np.pi * 300e9
LINEWIDTH = 2 * np.pi * 40e6
MASS_U = 24.0
DEPTH = CONST.kB * 50e-3


def _reference_power(charge_e=1.0) -> float:
    ion = IonSpecies.from_amu(MASS_U, charge_e)
    probe = LaserBeam(wavelength=WAVELENGTH, waist_radius=WAIST,
                      detuning=DETUNING, power=1.0)
    return power_for_depth(TrapSetup(ion, probe, LINEWIDTH), DEPTH)


# beam power giving exactly kB x 50 mK weak-drive depth for the Q = +e ion
REFERENCE_POWER = _reference_power()


def make_reference_setup(charge_e=1.0, power=None, static=(0.0, 0.0, 0.0),
                         temperature=300.0):
    ion = IonSpecies.from_amu(MASS_U, charge_e)
    beam = LaserBeam(wavelength=WAVELENGTH, waist_radius=WAIST,
                     detuning=DETUNING,
                     power=REFERENCE_POWER if power is None else power)
    return TrapSetup(ion, beam, LINEWIDTH, static_curvatures=static,
                     temperature=temperature)


@pytest.fixture(scope="session")
def mg_setup():
    return make_reference_setup()


@pytest.fixture(scope="session")
def neutral_setup():
    return make_reference_setup(charge_e=0.0)


@pytest.fixture()
def focus():
    return (0.0, 0.0, 0.0)


# the package's own warning categories, the only ones a successful command
# should print
TRAP_WARNINGS = {name for name, value in vars(errors).items()
                 if isinstance(value, type)
                 and issubclass(value, errors.TrapWarning)}


def foreign_warnings(stderr: str) -> list:
    """The CLI's ``warning: <Category>: ...`` lines of another category."""
    return [line for line in stderr.splitlines()
            if line.startswith("warning: ")
            and line.split(": ")[1] not in TRAP_WARNINGS]
