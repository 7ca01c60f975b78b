"""Walk through the reference single-ion dipole trap.

A 24Mg+ ion held by a tightly focused 280 nm beam (waist 7 um), red
detuned by 2pi x 300 GHz from its dipole transition (Gamma = 2pi x 40
MHz), at a trap depth of kB x 50 mK.  This script builds the setup and
prints the quantities a trap designer reaches for first.
"""

from dataclasses import replace

import numpy as np

from optrap import CONST, equilibrium_shift, mean_force_at, trap_summary
from optrap.config import load_config
from optrap.errors import NoRoot

parsed = load_config("demos/mg24.json")
setup = parsed.setup
beam = setup.beam

print("beam geometry")
print(f"  rayleigh range  {beam.rayleigh_range * 1e3:8.3f} mm")
print(f"  wavenumber      {beam.wavenumber:.4e} 1/m")
print(f"  omega_L         2pi x {beam.omega_laser / 2 / np.pi:.4e} Hz")
print(f"  power           {beam.power * 1e3:.1f} mW for kB x 50 mK depth")

amps = setup.focus_fields                # the focus chain, once per setup
print("\nfields at the focus")
print(f"  E_L = {amps.electric:.4e} V/m, B_L = {amps.magnetic:.4e} T, "
      f"A_L = {amps.vector_potential:.4e} T m")
print(f"  Rabi frequency 2pi x {setup.rabi_frequency/2/np.pi:.4e} Hz")

summary = trap_summary(setup)
print("\ntrap summary")
print(f"  depth            kB x {summary.depth / CONST.kB * 1e3:.2f} mK")
print(f"  radial frequency 2pi x {summary.optical_trap_frequencies[0]/2/np.pi/1e3:.1f} kHz")
print(f"  axial frequency  2pi x {summary.optical_trap_frequencies[2]/2/np.pi/1e3:.2f} kHz")
print(f"  recoil: E_rec/hbar = 2pi x {summary.recoil_energy/CONST.hbar/2/np.pi:.3e} Hz")
print(f"  scattering rate at focus {summary.scattering_rate_at_focus:.3e} 1/s")

print("\nfrequency hierarchy (ascending)")
for name, value in summary.hierarchy:
    print(f"  {name:18s} 2pi x {value / 2 / np.pi:.3e} Hz")

force = mean_force_at(setup, (0.0, 0.0, 0.1 * beam.rayleigh_range))
print("\nmean force 0.1 zR downstream of the focus")
print(f"  dipolar (restoring) {force.dipolar[2]:+.3e} N")
print(f"  radiation pressure  {force.radiation_pressure[2]:+.3e} N")

print("\naxial equilibrium under radiation pressure")
try:
    equilibrium_shift(setup)
except NoRoot:
    print("  optical trap alone: none within one Rayleigh range (radiation "
          "pressure")
    print("  overwhelms the weak optical axial restoring force)")
# a static curvature along z is what holds the ion on axis in practice
held = replace(setup, static_curvatures=(0.0, 0.0, (2 * np.pi * 100e3) ** 2))
shift = equilibrium_shift(held)
print(f"  with a static axial curvature (2pi x 100 kHz)^2: {shift:.2e} m "
      f"downstream ({shift / beam.rayleigh_range:.1e} zR)")
