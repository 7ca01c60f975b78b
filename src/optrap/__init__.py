"""Optical dipole trapping of a single charged, hydrogen-like ion.

Library layout:

* :mod:`optrap.model` — domain types (ion, transition, beam, setup) and
  Gaussian-beam field and saturation evaluation;
* :mod:`optrap.dipole_trap` — mean force, effective potential, scattering,
  trap depth/frequencies, confinement and the frequency hierarchy;
* :mod:`optrap.charge_corrections` — the ledger of charge/multipole/
  relativistic corrections to pure dipole trapping;
* :mod:`optrap.mathieu_floquet` — optical-potential -> Mathieu mapping,
  monodromy stability, micromotion extraction, stability maps;
* :mod:`optrap.blackbody` — thermal occupation and charge heating rates;
* :mod:`optrap.dynamics` — secular trajectories, the monopole-driven
  oscillator, equilibrium shift;
* :mod:`optrap.cli` — the ``trap`` command (report / stability / simulate).
"""

from .constants import CONST, PhysicalConstants
from .model import (FieldAmplitudes, IonSpecies, LaserBeam, TrapSetup,
                    Transition, field_amplitudes_at, intensity_at,
                    intensity_gradient_at, rabi_frequency_at, saturation_at,
                    setup_from_beam)
from .dipole_trap import (MeanForce, TrapSummary, dipole_force_at,
                          effective_potential_at, mean_force_at,
                          power_for_depth, recoil_energy, scattering_rate_at,
                          trap_depth, trap_summary)
from .charge_corrections import (CorrectionLedger, LedgerEntry, MonopoleDrive,
                                 MultipoleRatios, RelativisticRatios,
                                 corrections_table, monopole_drive,
                                 multipole_ratios, relativistic_ratios)
from .mathieu_floquet import (FloquetResult, MathieuParams, StabilityScan,
                              floquet_eigenfunction_spectrum,
                              mathieu_monodromy, micromotion_ratio_optical,
                              monodromy_stability, optical_mathieu_params,
                              stability_scan)
from .blackbody import HeatingEstimate, heating_rate, mean_occupation
from .dynamics import (DrivenOscillatorSpec, DrivenSolution, TrajectoryRecord,
                       analytic_driven_solution, dominant_frequency,
                       equilibrium_shift, exact_driven_position,
                       integrate_driven, integrate_full,
                       steady_drive_amplitude)
from . import errors

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
