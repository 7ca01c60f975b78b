"""Spans around the package's public functions, recorded from outside.

The tracer replaces a function at every ``optrap`` module attribute that
holds it (so ``optrap.cli.build_report`` and
``optrap.reporting.build_report`` are both caught) and restores them on
:meth:`Tracer.uninstall`.  Spans (name, start, end, parent, size, phase)
are kept in memory; :func:`layer_metrics` turns them into the per-layer
metrics once the run is over.  A target whose function no longer exists
is skipped, and the metrics built on it are reported absent, not zero.
"""

import importlib
import statistics
import sys
from time import perf_counter

import numpy as np


def _points(pos):
    return int(np.size(pos)) // 3


def _driven_periods(args, kwargs):
    if kwargs.get("drive_periods") is not None:
        return kwargs["drive_periods"]
    spec = args[0]
    return kwargs["t_end"] * spec.drive_frequency / (2.0 * np.pi)


# "module.function" or "module.Class.method" -> size of the work in one call
TARGETS = {
    "cli.main": None,
    "config.load_config": None,
    "reporting.build_report": None,
    "reporting.render_text": None,
    "charge_corrections.corrections_table": None,
    "dipole_trap.trap_summary": None,
    "blackbody.heating_rate": None,
    "mathieu_floquet.stability_scan": None,
    "mathieu_floquet.StabilityScan.to_csv_text": None,
    "mathieu_floquet.mathieu_monodromy":
        lambda a, k: np.broadcast(np.asarray(a[0]), np.asarray(a[1])).size,
    "mathieu_floquet.floquet_eigenfunction_spectrum": None,
    "mathieu_floquet.monodromy_stability": None,
    "integrators.rk8_scalar_oscillator":
        lambda a, k: a[3] if len(a) > 3 else k["nsteps"],
    "dynamics.integrate_driven": _driven_periods,
    "dynamics.integrate_full": lambda a, k: a[2] if len(a) > 2 else k["t_end"],
    "dynamics.TrajectoryRecord.to_csv_text": lambda a, k: len(a[0].times),
    "dynamics.dominant_frequency": None,
    "dipole_trap.dipole_force_at": lambda a, k: _points(a[1]),
    "dipole_trap.mean_force_at": lambda a, k: _points(a[1]),
    "model.intensity_gradient_at": lambda a, k: _points(a[1]),
    "units.format_sig": None,
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.name, self.start, self.end = [], [], []
        self.parent, self.size, self.phase = [], [], []
        self.current_phase = 0
        self.missing = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, size):
        names, starts, ends = self.name, self.start, self.end
        parents, sizes, phases, stack = self.parent, self.size, self.phase, self._stack

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            sizes.append(size(args, kwargs) if size else 1)
            phases.append(self.current_phase)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "optrap" or key.startswith("optrap."))]
        for target, size in TARGETS.items():
            parts = target.split(".")
            try:
                owner = importlib.import_module("optrap." + parts[0])
                if len(parts) == 3:
                    owner = getattr(owner, parts[1])
                original = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, original, size)
            holders = [owner] if len(parts) == 3 else modules
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()


class Spans:
    """Column view of a tracer's spans."""

    def __init__(self, tracer):
        self.name = np.array(tracer.name, dtype=object)
        self.start = np.array(tracer.start)
        self.end = np.array(tracer.end)
        self.dur = self.end - self.start
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.size = np.array(tracer.size, dtype=float)
        self.phase = np.array(tracer.phase, dtype=np.int64)
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                 minlength=len(self.dur))
        self.self_time = self.dur - child_time

    def pick(self, name, phase, where=None):
        mask = (self.name == name) & (self.phase == phase)
        if where is not None:
            mask &= where
        return np.flatnonzero(mask)

    def descendants(self, idx, name):
        """Per span in ``idx``: how many ``name`` spans ran inside it."""
        counts = {int(i): 0 for i in idx}
        for j in np.flatnonzero(self.name == name):
            p = self.parent[j]
            while p >= 0:
                if int(p) in counts:
                    counts[int(p)] += 1
                    break
                p = self.parent[p]
        return [counts[int(i)] for i in idx]

    def layer_self_seconds(self, phase):
        """Self time per layer (module) over one phase."""
        out = {}
        for name, dt in zip(self.name[self.phase == phase],
                            self.self_time[self.phase == phase]):
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + float(dt)
        return out


def _median(values, scale):
    return statistics.median(values) * scale if len(values) else None


def _ratio(num, den, scale=1.0):
    return float(num) / float(den) * scale if den > 0 else None


def _metric_table():
    """name -> (unit, function of (spans, phase, context): a number, or None
    when the phase has no spans for it)."""

    def med(name, scale, where=None):
        return lambda s, ph, ctx: _median(s.dur[s.pick(name, ph, where(s) if where else None)], scale)

    def per_unit(name, scale, where=None):
        def f(s, ph, ctx):
            idx = s.pick(name, ph, where(s) if where else None)
            return _ratio(s.dur[idx].sum(), s.size[idx].sum(), scale) if len(idx) else None
        return f

    def force_calls(s, ph, ctx):
        full = s.pick("dynamics.integrate_full", ph)
        forces = np.flatnonzero(np.isin(s.parent, full) & np.isin(
            s.name, ["dipole_trap.dipole_force_at", "dipole_trap.mean_force_at"]))
        periods = s.size[full].sum() * ctx["radial_omega"] / (2.0 * np.pi)
        return (forces, full, periods)

    def force_calls_per_period(s, ph, ctx):
        forces, full, periods = force_calls(s, ph, ctx)
        return _ratio(len(forces), periods) if len(full) else None

    def force_time_frac(s, ph, ctx):
        forces, full, _ = force_calls(s, ph, ctx)
        return _ratio(s.dur[forces].sum(), s.dur[full].sum()) if len(full) else None

    def per_parent(parent, child):
        def f(s, ph, ctx):
            idx = s.pick(parent, ph)
            return statistics.median(s.descendants(idx, child)) if len(idx) else None
        return f

    def cli_self(s, ph, ctx):
        return _median(s.self_time[s.pick("cli.main", ph)], 1e3)

    def single(s):          # one point: a 3-vector, or one (a, q)
        return s.size == 1

    def not_stored(s):      # single monodromy not run by the spectrum extraction
        spectrum = np.flatnonzero(s.name == "mathieu_floquet.floquet_eigenfunction_spectrum")
        return (s.size == 1) & ~np.isin(s.parent, spectrum)

    def batch(s):
        return s.size > 1

    def big(s):             # the 10^4-point probe batch
        return s.size >= 1000

    mf = "mathieu_floquet."
    return {
        "mathieu_floquet.stability_scan_s": ("s", med(mf + "stability_scan", 1.0)),
        "mathieu_floquet.monodromy_us_per_point":
            ("us", per_unit(mf + "mathieu_monodromy", 1e6, batch)),
        "mathieu_floquet.scan_csv_ms": ("ms", med(mf + "StabilityScan.to_csv_text", 1e3)),
        "mathieu_floquet.monodromy_single_ms":
            ("ms", med(mf + "mathieu_monodromy", 1e3, not_stored)),
        "mathieu_floquet.monodromy_stability_ms":
            ("ms", med(mf + "monodromy_stability", 1e3)),
        "mathieu_floquet.floquet_spectrum_ms":
            ("ms", med(mf + "floquet_eigenfunction_spectrum", 1e3)),
        "mathieu_floquet.monodromy_calls_per_point":
            ("count", per_parent(mf + "monodromy_stability", mf + "mathieu_monodromy")),
        "integrators.rk8_scalar_ns_per_step":
            ("ns", per_unit("integrators.rk8_scalar_oscillator", 1e9)),
        "dynamics.integrate_driven_ms":
            ("ms", per_unit("dynamics.integrate_driven", 512e3)),
        "dynamics.integrate_full_s": ("s", med("dynamics.integrate_full", 1.0)),
        "dynamics.force_calls_per_period": ("count", force_calls_per_period),
        "dynamics.force_time_frac": ("1", force_time_frac),
        "dipole_trap.dipole_force_us":
            ("us", med("dipole_trap.dipole_force_at", 1e6, single)),
        "dipole_trap.mean_force_us": ("us", med("dipole_trap.mean_force_at", 1e6, single)),
        "dipole_trap.mean_force_ns_per_point":
            ("ns", per_unit("dipole_trap.mean_force_at", 1e9, big)),
        "model.intensity_gradient_us":
            ("us", med("model.intensity_gradient_at", 1e6, single)),
        "dynamics.trajectory_csv_ms": ("ms", med("dynamics.TrajectoryRecord.to_csv_text", 1e3)),
        "units.format_sig_ns": ("ns", med("units.format_sig", 1e9)),
        "dynamics.dominant_frequency_ms": ("ms", med("dynamics.dominant_frequency", 1e3)),
        "config.load_config_ms": ("ms", med("config.load_config", 1e3)),
        "reporting.build_report_ms": ("ms", med("reporting.build_report", 1e3)),
        "reporting.render_text_ms": ("ms", med("reporting.render_text", 1e3)),
        "reporting.trap_summary_calls":
            ("count", per_parent("reporting.build_report", "dipole_trap.trap_summary")),
        "charge_corrections.corrections_table_ms":
            ("ms", med("charge_corrections.corrections_table", 1e3)),
        "dipole_trap.trap_summary_us": ("us", med("dipole_trap.trap_summary", 1e6)),
        "blackbody.heating_rate_us": ("us", med("blackbody.heating_rate", 1e6)),
        "cli.self_ms": ("ms", cli_self),
    }


LAYER_METRICS = _metric_table()


def layer_metrics(tracer, context):
    """(metrics, source) over the workload's spans (phase 0), falling back
    to the layer probes' spans (phase 1) where the workload has none.

    ``source`` maps each metric to "workload", "probe" or "absent".
    """
    spans = Spans(tracer)
    metrics, source = {}, {}
    for name, (unit, fn) in LAYER_METRICS.items():
        for phase, label in ((0, "workload"), (1, "probe")):
            value = fn(spans, phase, context)
            if value is not None:
                metrics[name] = {"value": float(value), "unit": unit}
                source[name] = label
                break
        else:
            source[name] = "absent"
    return metrics, source


def uncovered(tracer, context):
    """Metric names that the workload's own spans leave without a value."""
    spans = Spans(tracer)
    return [name for name, (_, fn) in LAYER_METRICS.items()
            if fn(spans, 0, context) is None]
