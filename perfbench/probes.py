"""Layer probes for the traced run.

A workload exercises only some layers.  So that every traced run reports
every per-layer metric, the layers the workload left without spans are
probed here with small fixed inputs, under the same tracer (phase 1).
A per-layer value therefore always means the same thing for a given
workload, and the run record says which values came from a probe.
"""

import math
import random

import numpy as np

import oracles
from workloads import BASE_TRAP, report_config, write_json

# monodromy steps of the probes in a smoke run (the default otherwise)
SMOKE_STEPS = 256


def _steps(smoke):
    return {"steps": SMOKE_STEPS} if smoke else {}


def probe_scan(work, rng, smoke):
    from optrap import mathieu_floquet
    scan = mathieu_floquet.stability_scan((0.1, 0.45), (0.1, 0.45), 0.07, **_steps(smoke))
    scan.to_csv_text()


def probe_floquet(work, rng, smoke):
    from optrap import mathieu_floquet
    q = rng.uniform(0.002, 0.05)
    mathieu_floquet.monodromy_stability((2.0 * q, q), **_steps(smoke))


def probe_driven(work, rng, smoke):
    from optrap import dynamics
    w0 = 2.0 * math.pi * 1e5
    spec = dynamics.DrivenOscillatorSpec(
        omega0=w0, drive_frequency=10.0 * w0, charge=oracles.E_CHARGE,
        field_amplitude=1.0, mass=24.0 * oracles.AMU)
    dynamics.integrate_driven(spec, drive_periods=4 if smoke else 64)


def _setup(work):
    from optrap import config
    return config.load_config(write_json(work / "probe_trap.json", BASE_TRAP)).setup


def probe_full(work, rng, smoke):
    from optrap import dynamics
    setup = _setup(work)
    w0 = BASE_TRAP["laser"]["waist_um"] * 1e-6
    period = 2.0 * math.pi / oracles.radial_frequency(BASE_TRAP)
    record = dynamics.integrate_full(
        setup, ((0.01 * w0, 0.0, 0.0), (0.0, 0.0, 0.0)), (1 if smoke else 5) * period,
        include_radiation_pressure=False, force_model="low_sat", samples=1025)
    record.to_csv_text()
    dynamics.dominant_frequency(record.times, record.positions[:, 0])


def probe_force(work, rng, smoke):
    from optrap import dipole_trap
    setup = _setup(work)
    scale = 0.05 * BASE_TRAP["laser"]["waist_um"] * 1e-6
    gen = np.random.default_rng(rng.randrange(2 ** 32))
    points = gen.normal(scale=scale, size=(10_000, 3))
    for p in points[:50 if smoke else 500]:
        dipole_trap.dipole_force_at(setup, p)
        dipole_trap.mean_force_at(setup, p)
    for _ in range(1 if smoke else 5):
        dipole_trap.mean_force_at(setup, points)


def probe_report(work, rng, smoke):
    from optrap import config, reporting
    for i in range(5 if smoke else 20):
        cfg = report_config(rng)
        cfg["static"] = {"curvatures_2pi_kHz_squared": [0.0, 0.0, 0.0]}
        parsed = config.load_config(write_json(work / f"probe_report{i}.json", cfg))
        reporting.render_text(reporting.build_report(parsed))


# probe -> the per-layer metrics it provides
PROBES = (
    (probe_scan, ("mathieu_floquet.stability_scan_s", "mathieu_floquet.monodromy_us_per_point",
                  "mathieu_floquet.scan_csv_ms")),
    (probe_floquet, ("mathieu_floquet.monodromy_single_ms",
                     "mathieu_floquet.monodromy_stability_ms",
                     "mathieu_floquet.floquet_spectrum_ms",
                     "mathieu_floquet.monodromy_calls_per_point")),
    (probe_driven, ("integrators.rk8_scalar_ns_per_step", "dynamics.integrate_driven_ms")),
    (probe_full, ("dynamics.integrate_full_s", "dynamics.force_calls_per_period",
                  "dynamics.force_time_frac", "dynamics.trajectory_csv_ms",
                  "dynamics.dominant_frequency_ms", "units.format_sig_ns",
                  "dipole_trap.dipole_force_us", "model.intensity_gradient_us")),
    (probe_force, ("dipole_trap.dipole_force_us", "dipole_trap.mean_force_us",
                   "dipole_trap.mean_force_ns_per_point", "model.intensity_gradient_us")),
    (probe_report, ("config.load_config_ms", "reporting.build_report_ms",
                    "reporting.render_text_ms", "reporting.trap_summary_calls",
                    "charge_corrections.corrections_table_ms",
                    "dipole_trap.trap_summary_us", "blackbody.heating_rate_us",
                    "units.format_sig_ns")),
)


def run_probes(missing, work, seed, smoke):
    """Run every probe that provides one of the ``missing`` metrics; their names."""
    rng = random.Random(seed)
    ran = []
    for probe, provides in PROBES:
        if set(provides) & set(missing):
            probe(work, rng, smoke)
            ran.append(probe.__name__)
    return ran
