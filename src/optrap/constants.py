"""Pinned physical constants (CODATA 2018, SI units).

Values are pinned rather than imported from scipy so that results do not
shift when the environment's scipy moves to a newer CODATA adjustment.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants used throughout the package, SI units."""

    hbar: float = 1.054571817e-34            # J s
    c: float = 299792458.0                   # m/s (exact)
    eps0: float = 8.8541878128e-12           # F/m
    kB: float = 1.380649e-23                 # J/K (exact)
    e_charge: float = 1.602176634e-19        # C (exact)
    m_electron: float = 9.1093837015e-31     # kg
    atomic_mass_unit: float = 1.66053906660e-27  # kg
    fine_structure_alpha: float = 7.2973525693e-3

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"constant {name} must be strictly positive")

    @property
    def bohr_magneton(self) -> float:
        """e hbar / (2 m_e), J/T."""
        return self.e_charge * self.hbar / (2.0 * self.m_electron)


CONST = PhysicalConstants()
