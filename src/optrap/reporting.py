"""Report assembly: frequency hierarchy, correction ledger, per-axis data.

The two text tables mirror the layout used in the trapped-ion dipole-trap
literature: a hierarchy of frequency scales and a ledger of corrections,
each with a ``paper_order`` column holding the published order-of-
magnitude estimate for the reference single-Mg+ experiment.  Those
reference orders are fixed comparison anchors; they are not recomputed
for other configurations.
"""

from .constants import CONST
from .errors import PhysicsError
from .config import ParsedConfig
from .charge_corrections import corrections_table
from .dipole_trap import trap_summary
from .mathieu_floquet import (AXIS_NAMES, micromotion_ratio_optical,
                              optical_mathieu_params)
from .units import TWO_PI, format_sig

# symbol and published order (2pi x Hz) of each reference hierarchy scale
REFERENCE_FREQUENCY_ORDERS = {
    "omega0": ("omega_0", 1e5),
    "recoil": ("E_rec/hbar", 1e5),
    "linewidth": ("Gamma", 4e7),
    "depth_rate": ("U_0/hbar", 1e9),
    "rabi": ("Omega", 3e10),
    "abs_detuning": ("|delta|", 3e11),
    "omega_laser": ("omega_L", 1e15),
    "omega_transition": ("omega_eg", 1e15),
}


def build_report(parsed: ParsedConfig) -> dict:
    """Deterministic report dictionary for a validated configuration."""
    setup = parsed.setup
    summary = trap_summary(setup)
    if summary.depth == float("inf"):
        key = "power_mW" if "power_mW" in parsed.raw["laser"] else "depth_mK"
        raise PhysicsError(f"laser.{key} is too large: the trap depth overflows")
    if not 0.0 < summary.omega0 < float("inf"):
        raise PhysicsError("no axis has a positive finite secular frequency "
                           f"(omega0 = {summary.omega0:g} rad/s)")
    ledger = corrections_table(setup,
                               blackbody_prefactor=parsed.blackbody_prefactor)
    heating = ledger.heating

    hierarchy = []
    for name, value in summary.hierarchy:
        symbol, order = REFERENCE_FREQUENCY_ORDERS[name]
        hierarchy.append({
            "name": name,
            "symbol": symbol,
            "rad_s": float(value),
            "two_pi_hz": float(value / TWO_PI),
            "paper_order_2pi_hz": order,
        })

    mathieu_rows = []
    for axis in range(3):
        row = {"axis": AXIS_NAMES[axis],
               "anticonfined": axis in summary.anticonfined_axes}
        if not row["anticonfined"]:
            params = optical_mathieu_params(setup, axis)
            row.update({
                "a": params.a,
                "q": params.q,
                "drive_rad_s": params.drive_angular_frequency,
                "micromotion_ratio": micromotion_ratio_optical(setup, axis),
            })
        mathieu_rows.append(row)

    report = {
        "config": parsed.raw,
        "trap": {
            "depth_J": summary.depth,
            "depth_mK": summary.depth / CONST.kB * 1e3,
            "saturation_at_focus": float(setup.saturation_at_focus),
            "scattering_rate_at_focus_per_s": summary.scattering_rate_at_focus,
            "recoil_energy_J": summary.recoil_energy,
            "optical_trap_frequencies_rad_s": list(
                summary.optical_trap_frequencies),
            "combined_trap_frequencies_rad_s": list(
                summary.combined_trap_frequencies),
            "anticonfined_axes": list(summary.anticonfined_axes),
            "omega0_rad_s": summary.omega0,
            "motional_temperature_K": summary.motional_temperature,
        },
        "hierarchy": hierarchy,
        "corrections": ledger.to_json_dict(),
        "blackbody": {
            "mean_occupation": heating.mean_occupation,
            "larmor_rate_per_s": heating.larmor_rate,
            "heating_rate_per_s": heating.heating_rate,
            "heating_timescale_s": heating.heating_timescale,
            "motional_temperature_K": summary.motional_temperature,
            "flags": list(heating.flags),
        },
        "mathieu": mathieu_rows,
        "notes": [],
    }
    if setup.ion.total_charge == 0.0:
        report["notes"].append(
            "neutral-atom limit: charge-monopole entries are exactly zero")
    return report


def _table(rows, header, digits):
    """Aligned plain-text table; numbers through format_sig."""
    rendered = [header]
    for row in rows:
        rendered.append([cell if isinstance(cell, str)
                         else format_sig(cell, digits) for cell in row])
    widths = [max(len(line[i]) for line in rendered)
              for i in range(len(header))]
    lines = []
    for j, line in enumerate(rendered):
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(line, widths)).rstrip())
        if j == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_text(report: dict, digits: int = 9) -> str:
    """Human-readable report with the two reference tables."""
    trap = report["trap"]
    parts = [
        "optical dipole trap report",
        "",
        f"trap depth: {format_sig(trap['depth_J'], digits)} J"
        f" = kB x {format_sig(trap['depth_mK'], digits)} mK",
        f"saturation at focus: {format_sig(trap['saturation_at_focus'], digits)}",
        "scattering rate at focus: "
        f"{format_sig(trap['scattering_rate_at_focus_per_s'], digits)} 1/s",
        "trap frequencies (optical, rad/s): "
        + ", ".join(format_sig(v, digits)
                    for v in trap["optical_trap_frequencies_rad_s"]),
        "trap frequencies (combined, rad/s): "
        + ", ".join(format_sig(v, digits)
                    for v in trap["combined_trap_frequencies_rad_s"]),
        "",
        "frequency scales (paper_order: published reference orders, 2pi x Hz)",
        _table([[row["symbol"], row["two_pi_hz"], row["paper_order_2pi_hz"]]
                for row in report["hierarchy"]],
               ["scale", "2pi_x_Hz", "paper_order"], digits),
        "",
        "corrections to dipolar trapping (ratios relative to U0)",
        _table([[en["name"], en["formula"], en["value"], en["ratio_to_u0"],
                 en["paper_order"], en["section"]]
                for en in report["corrections"]],
               ["name", "formula", "value", "ratio_to_U0", "paper_order",
                "section"], digits),
        "",
        "blackbody heating: "
        f"nbar = {format_sig(report['blackbody']['mean_occupation'], digits)}, "
        f"rate = {format_sig(report['blackbody']['heating_rate_per_s'], digits)}"
        " 1/s, timescale = "
        f"{format_sig(report['blackbody']['heating_timescale_s'], digits)} s",
        "",
        "optical micromotion (Mathieu parameters per beam-frame axis)",
        _table([[row["axis"],
                 row.get("a", float("nan")), row.get("q", float("nan")),
                 row.get("micromotion_ratio", float("nan")),
                 "yes" if row["anticonfined"] else "no"]
                for row in report["mathieu"]],
               ["axis", "a", "q", "micromotion_ratio", "anticonfined"],
               digits),
    ]
    for note in report["notes"]:
        parts.append("")
        parts.append(f"note: {note}")
    return "\n".join(parts) + "\n"
