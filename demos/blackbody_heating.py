"""Does room-temperature radiation heat an optically trapped ion?

The charged oscillator couples to the thermal field modes resonant with
its motional frequency.  Their occupation at 300 K is enormous (~1e8 for
2pi x 100 kHz) but the emission prefactor is so small that the resulting
heating time is months to years; blackbody heating is a non-issue for
these traps.
"""

import numpy as np

from optrap import CONST, heating_rate, mean_occupation
from optrap.config import load_config

setup = load_config("demos/mg24.json").setup

print("thermal occupation of the resonant modes at 300 K")
for f_khz in (10, 100, 1000):
    omega0 = 2 * np.pi * f_khz * 1e3
    print(f"  omega0 = 2pi x {f_khz:5d} kHz: nbar = "
          f"{mean_occupation(omega0, 300.0):.3e}")

print("\nheating estimates for the reference ion")
for f_khz in (10, 100, 1000):
    omega0 = 2 * np.pi * f_khz * 1e3
    est = heating_rate(setup, omega0)
    print(f"  omega0 = 2pi x {f_khz:5d} kHz: Gamma' = "
          f"{est.heating_rate:.3e} 1/s, timescale {est.heating_timescale:.2e} s"
          f" ({est.heating_timescale / 86400.0:.0f} days)")

omega0 = 2 * np.pi * 1e5
print(f"\nhbar omega0 / kB at 2pi x 100 kHz: "
      f"{CONST.hbar * omega0 / CONST.kB * 1e6:.2f} uK "
      "(a few microkelvin, so the bath occupation is deep in the "
      "Rayleigh-Jeans regime)")
print("the published estimate for this setup is ~1e-7 Hz; the plain "
      "dipole-emission prefactor used here lands a factor of a few tens "
      "below that (the exact published prefactor is not reconstructable), "
      "so the value is reported with the discrepancy visible rather than "
      "tuned away. pass prefactor_multiplier to explore other conventions.")
