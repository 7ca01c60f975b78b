"""How large are the non-dipolar couplings of a trapped ion, really?

The net charge adds couplings a neutral atom does not have: a correction
to the dipole coupling charge, a direct monopole drive at the laser
frequency, and blackbody heating of the charged oscillator.  Multipole
and relativistic terms exist for neutrals too.  This script evaluates
all of them for the reference trap, prints the ledger next to the
published order-of-magnitude estimates, and shows what switching the
charge off does.
"""

from dataclasses import replace

from optrap import IonSpecies, corrections_table
from optrap.config import load_config

parsed = load_config("demos/mg24.json")
setup = parsed.setup

ledger = corrections_table(setup)
print(f"trap depth U0 = {ledger.depth:.4e} J\n")
print(f"{'entry':30s} {'value':>13s} {'ratio to U0':>13s} {'published':>10s}")
for entry in ledger.entries:
    print(f"{entry.name:30s} {entry.value:13.4e} {entry.ratio_to_u0:13.4e} "
          f"{entry.paper_order:10.0e}")

print("\nheadline rows sorted by computed ratio (published-table order):")
for entry in ledger.sorted_by_ratio()[:4]:
    print(f"  {entry.name:30s} {entry.ratio_to_u0:.3e}")

# neutral-atom limit: the charge-tagged entries vanish, the rest persist
neutral = replace(setup, ion=IonSpecies.from_amu(24.0, 0.0))
neutral_ledger = corrections_table(neutral)
print("\nwith the charge switched off (Q = 0):")
for entry in neutral_ledger.entries:
    tag = "-> 0" if entry.value == 0.0 else "unchanged (charge-independent)"
    print(f"  {entry.name:30s} {entry.value:13.4e}   {tag}")
