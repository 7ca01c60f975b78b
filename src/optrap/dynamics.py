"""Time-domain dynamics of the ion centre of mass.

Two deliberately separate integrations:

* :func:`integrate_full` follows the secular motion in the full Gaussian
  trap under the optical mean force (the fast optical oscillation is
  excluded by construction, matching the time-scale separation the trap
  analysis rests on).  scipy's DOP853, the adaptive 8th-order
  Dormand-Prince pair (Hairer, Norsett & Wanner, *Solving ODEs I*).  What
  does not change along the trajectory is computed once: the static
  curvatures' stiffness per run, and the saturation per unit intensity
  s0/I0 once per setup (kept by the setup,
  :attr:`~optrap.model.TrapSetup.saturation_per_intensity`).  Each
  right-hand-side evaluation calls the public force functions.

* :func:`integrate_driven` solves the charge-monopole driven harmonic
  oscillator M x'' = Q E cos(w_d t) - M w0^2 x with the fixed-step RK8
  kernel of :mod:`optrap.integrators` (the one the Mathieu monodromy
  uses), for drive/secular ratios up to 1e6.  The physical
  ratio (~1e10) is validated through the analytic steady state and its
  (w0/w_d)^2 scaling law, not by direct integration.

Radiation pressure shifts the axial equilibrium away from the focus;
:func:`equilibrium_shift` locates that equilibrium by a bracketed
bisection of the total axial force (dipole + radiation pressure + static
restoring force).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (EscapedTrap, InitialConditionWarning, NoRoot, Resonance,
                     StepFailure, UnreachableScale)
from .integrators import rk8_scalar_oscillator
from .model import TrapSetup
from .dipole_trap import (FORCE_MODELS, dipole_force_at,
                          effective_potential_at, mean_force_at)

ESCAPE_RADIUS_WAISTS = 100.0
INITIAL_WARNING_WAISTS = 5.0
# smallest absolute tolerance: atol = 0 hangs DOP853 on state components
# that stay exactly zero (0/0 error ratios); 1e-100 ends cleanly
MIN_ATOL = 1e-100
DEFAULT_SAMPLES = 4097   # integrate_full's output samples


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use so that importing
    the package (and the report and stability commands) loads no scipy."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Uniformly sampled centre-of-mass trajectory with energy diagnostics
    (J); ``total_energy`` is kinetic plus potential."""

    times: np.ndarray        # (n,), s, strictly increasing
    positions: np.ndarray    # (n, 3), m
    velocities: np.ndarray   # (n, 3), m/s
    kinetic_energy: np.ndarray
    potential_energy: np.ndarray
    metadata: dict

    def __post_init__(self):
        n = len(self.times)
        for arr in (self.positions, self.velocities, self.kinetic_energy,
                    self.potential_energy):
            if len(arr) != n:
                raise ValueError("trajectory series lengths differ")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def total_energy(self) -> np.ndarray:
        return self.kinetic_energy + self.potential_energy

    def to_csv_text(self) -> str:
        # one format string per row; "%.12g" % x == format_sig(x, 12)
        row_format = ",".join(["%.12g"] * 10)
        lines = ["t,x,y,z,vx,vy,vz,E_kin,E_pot,E_tot"]
        for t, pos, vel, kin, pot, tot in zip(
                self.times, self.positions, self.velocities,
                self.kinetic_energy, self.potential_energy, self.total_energy):
            lines.append(row_format % (t, *pos, *vel, kin, pot, tot))
        return "\n".join(lines) + "\n"


def _static_potential(setup: TrapSetup, positions):
    cur = np.asarray(setup.static_curvatures)
    return 0.5 * setup.ion.total_mass * np.sum(cur * positions ** 2, axis=-1)


def integrate_full(setup: TrapSetup, initial, t_end: float,
                   include_radiation_pressure: bool = True,
                   force_model: str = "exact_log",
                   rtol: float = 1e-10, atol: float = 1e-16,
                   samples: int = DEFAULT_SAMPLES) -> TrajectoryRecord:
    """Integrate M R'' = F(R) in the Gaussian trap.

    ``initial`` is a (position, velocity) pair of 3-vectors (metres, m/s,
    measured from the focus).  ``force_model`` selects the dipole-force
    form: "exact_log" is the mean force's -(hbar d/2) grad ln(1+s);
    "low_sat" is the gradient of the weak-drive potential (hbar d/2) s.
    The two differ by a relative s/2; energies are booked against the
    matching potential, so conservative runs conserve E in either mode.
    Radiation pressure (non-conservative) can be switched off for
    conservative-only runs.  Static curvatures contribute their restoring
    force and potential.

    Raises :class:`EscapedTrap` past 100 waists and :class:`StepFailure`
    if the tolerances cannot be met; ``ValueError``, before integrating,
    for ``atol`` below ``MIN_ATOL``, ``rtol`` <= 0 or a ``force_model``
    outside ``FORCE_MODELS``.
    """
    if not (atol >= MIN_ATOL and rtol > 0):
        raise ValueError(f"need atol >= {MIN_ATOL:g} and rtol > 0, got "
                         f"atol={atol!r}, rtol={rtol!r}")
    if force_model not in FORCE_MODELS:
        raise ValueError(f"unknown force model: {force_model!r} (one of "
                         f"{', '.join(FORCE_MODELS)})")
    position0 = np.asarray(initial[0], dtype=float)
    velocity0 = np.asarray(initial[1], dtype=float)
    if position0.shape != (3,) or velocity0.shape != (3,):
        raise ValueError("initial position and velocity must be 3-vectors")
    w0 = setup.beam.waist_radius
    # the confinement scale is anisotropic: waists transversally,
    # Rayleigh ranges along the beam
    if (np.linalg.norm(position0[:2]) > INITIAL_WARNING_WAISTS * w0
            or abs(position0[2])
            > INITIAL_WARNING_WAISTS * setup.beam.rayleigh_range):
        warnings.warn("initial position beyond 5 trap length scales from "
                      "the focus", InitialConditionWarning, stacklevel=2)
    mass = setup.ion.total_mass
    # restoring force of the static curvatures per metre of displacement
    # (beam frame = lab frame)
    static_stiffness = -mass * np.asarray(setup.static_curvatures)

    def rhs(_t, y):
        pos = y[:3]
        if include_radiation_pressure:
            force = mean_force_at(setup, pos)
            f = (force.dipolar if force_model == "exact_log"
                 else dipole_force_at(setup, pos, mode="low_sat"))
            f = f + force.radiation_pressure
        else:
            f = dipole_force_at(setup, pos, mode=force_model)
        f = f + static_stiffness * pos
        return np.concatenate([y[3:], f / mass])

    def escaped(_t, y):
        return np.linalg.norm(y[:3]) - ESCAPE_RADIUS_WAISTS * w0
    escaped.terminal = True
    escaped.direction = 1.0

    sol = solve_ivp(rhs, (0.0, t_end), np.concatenate([position0, velocity0]),
                    method="DOP853", rtol=rtol, atol=atol,
                    t_eval=np.linspace(0.0, t_end, samples), events=escaped)
    if sol.status == 1:
        raise EscapedTrap(f"ion beyond {ESCAPE_RADIUS_WAISTS:g} waists at "
                          f"t = {sol.t_events[0][0]:.3e} s")
    if sol.status != 0:
        raise StepFailure(sol.message)

    pos = sol.y[:3].T
    vel = sol.y[3:].T
    kin = 0.5 * mass * np.sum(vel ** 2, axis=-1)
    pot = effective_potential_at(setup, pos, mode=force_model) \
        + _static_potential(setup, pos)
    meta = {"integrator": "DOP853", "rtol": rtol, "atol": atol,
            "force_model": force_model,
            "radiation_pressure": include_radiation_pressure}
    return TrajectoryRecord(times=sol.t, positions=pos, velocities=vel,
                            kinetic_energy=kin, potential_energy=pot,
                            metadata=meta)


# ---------------------------------------------------------------------------
# driven harmonic oscillator (charge monopole drive)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DrivenOscillatorSpec:
    """M x'' = Q E cos(w_d t) - M w0^2 x with initial conditions."""

    omega0: float            # secular frequency, rad/s
    drive_frequency: float   # w_d, rad/s
    charge: float            # Q, C
    field_amplitude: float   # E, V/m
    mass: float              # M, kg
    x0: float = 0.0          # m
    v0: float = 0.0          # m/s

    def __post_init__(self):
        values = (self.omega0, self.drive_frequency, self.charge,
                  self.field_amplitude, self.mass, self.x0, self.v0)
        if not all(np.isfinite(v) for v in values):
            raise ValueError("all driven-oscillator parameters must be finite")
        if self.omega0 <= 0 or self.drive_frequency <= 0 or self.mass <= 0:
            raise ValueError("omega0, drive frequency and mass must be positive")
        if abs(self.drive_frequency - self.omega0) < 1e-3 * self.omega0:
            raise Resonance("drive within 0.1% of the secular frequency; "
                            "no steady state separable from the transient")


@dataclass(frozen=True)
class DrivenSolution:
    """Closed-form steady state of the driven oscillator."""

    steady_amplitude: float      # Q E / (M (w_d^2 - w0^2)), m (signed)
    drive_kinetic_energy: float  # time-averaged KE of the drive motion, J
    secular_amplitude: float     # homogeneous-component amplitude, m
    drive_frequency: float       # rad/s


def analytic_driven_solution(spec: DrivenOscillatorSpec) -> DrivenSolution:
    """Exact steady state and secular amplitude for the given initial data.

    The particular solution is x_p(t) = -A cos(w_d t) with
    A = Q E / (M (w_d^2 - w0^2)); the remaining homogeneous motion has
    amplitude sqrt((x0 + A)^2 + (v0/w0)^2).  The time-averaged kinetic
    energy of the drive component is M A^2 w_d^2 / 4, which for
    w_d >> w0 is exactly half of (Q A_vec)^2/(2M) with A_vec = E/w_d.
    """
    amp = spec.charge * spec.field_amplitude / (
        spec.mass * (spec.drive_frequency ** 2 - spec.omega0 ** 2))
    return DrivenSolution(
        steady_amplitude=float(amp),
        drive_kinetic_energy=float(spec.mass * amp ** 2
                                   * spec.drive_frequency ** 2 / 4.0),
        secular_amplitude=float(np.hypot(spec.x0 + amp, spec.v0 / spec.omega0)),
        drive_frequency=spec.drive_frequency)


def exact_driven_position(spec: DrivenOscillatorSpec, t):
    """Full closed-form solution x(t) for the spec's initial conditions."""
    amp = analytic_driven_solution(spec).steady_amplitude
    xh0 = spec.x0 + amp          # x - x_p at t = 0
    return (-amp * np.cos(spec.drive_frequency * t)
            + xh0 * np.cos(spec.omega0 * t)
            + (spec.v0 / spec.omega0) * np.sin(spec.omega0 * t))


def driven_steps(omega0: float, drive_frequency: float, t_end: float = None,
                 drive_periods: int = None, steps_per_period: int = 64):
    """(t_end, step count) of :func:`integrate_driven`.

    The step divides the period of the fastest frequency present
    (max(w_d, w0)) into at least ``steps_per_period`` pieces.  Give the
    duration either directly (``t_end``) or as a number of drive periods.
    The count is a whole float, inf where it passes the float range.
    """
    if (t_end is None) == (drive_periods is None):
        raise ValueError("specify exactly one of t_end, drive_periods")
    if drive_periods is not None:
        t_end = drive_periods * 2.0 * np.pi / drive_frequency
    h = (2.0 * np.pi / max(drive_frequency, omega0)) / steps_per_period
    return t_end, max(float(np.ceil(t_end / h - 1e-9)), 1.0)


def integrate_driven(spec: DrivenOscillatorSpec, t_end: float = None,
                     drive_periods: int = None, steps_per_period: int = 64,
                     sample_every: int = 1) -> TrajectoryRecord:
    """Fixed-step integration of the driven oscillator over the steps of
    :func:`driven_steps` (``steps_per_period`` >= 64).  Raises
    :class:`UnreachableScale` for w_d/w0 > 1e6.
    """
    ratio = spec.drive_frequency / spec.omega0
    if ratio > 1e6:
        raise UnreachableScale(
            f"w_d/w0 = {ratio:.3e} > 1e6; validate via the analytic "
            "steady state and its scaling law instead")
    if steps_per_period < 64:
        raise ValueError("steps_per_period must be at least 64")
    t_end, nsteps = driven_steps(spec.omega0, spec.drive_frequency, t_end,
                                 drive_periods, steps_per_period)
    nsteps = int(nsteps)
    h = t_end / nsteps

    # Python floats throughout, so the RK8 float path stays in float math
    qe_over_m = float(spec.charge * spec.field_amplitude / spec.mass)
    w0_sq = float(spec.omega0 ** 2)
    wd = float(spec.drive_frequency)
    cos = math.cos

    def accel(t, x):
        return qe_over_m * cos(wd * t) - w0_sq * x

    ts, xs, vs = rk8_scalar_oscillator(accel, 0.0, h, nsteps, spec.x0, spec.v0,
                                       sample_every=sample_every)
    positions = np.zeros((len(ts), 3))
    positions[:, 0] = xs
    velocities = np.zeros_like(positions)
    velocities[:, 0] = vs
    # an energy past the float range is inf; the CLI refuses the run
    kin = 0.5 * spec.mass * vs ** 2
    pot = 0.5 * spec.mass * w0_sq * xs ** 2
    meta = {"integrator": "rk8-fixed", "steps_per_period": steps_per_period,
            "step": h, "drive_ratio": ratio}
    return TrajectoryRecord(times=ts, positions=positions,
                            velocities=velocities, kinetic_energy=kin,
                            potential_energy=pot, metadata=meta)


def steady_drive_amplitude(record: TrajectoryRecord, drive_frequency: float,
                           periods: int = None) -> float:
    """Amplitude of the -cos(w_d t) quadrature over whole drive periods.

    Projects the sampled positions onto cos(w_d t) over an integer number
    of drive periods (the largest that fits unless given), which isolates
    the steady drive response when the secular component is negligible or
    averages out.
    """
    period = 2.0 * np.pi / drive_frequency
    dt = record.times[1] - record.times[0]
    per_period = period / dt
    if periods is None:
        periods = int(np.floor((record.times[-1] - record.times[0]) / period))
    n = int(round(periods * per_period))
    if n < 2 or n > len(record.times) - 1:
        raise ValueError("trajectory does not cover the requested periods")
    t = record.times[:n]
    x = record.positions[:n, 0]
    return float(-2.0 * np.mean(x * np.cos(drive_frequency * t)))


# ---------------------------------------------------------------------------
# equilibrium shift and frequency estimation
# ---------------------------------------------------------------------------

def equilibrium_shift(setup: TrapSetup, include_radiation_pressure: bool = True,
                      xtol: float = 1e-12) -> float:
    """Axial displacement of the equilibrium due to radiation pressure, m.

    Solves total axial force = 0 (dipole + radiation pressure + static
    restoring) by bracketed bisection within one Rayleigh range of the
    focus.  Without radiation pressure the equilibrium is the focus
    itself.  Raises :class:`NoRoot` when radiation pressure exceeds the
    maximum restoring force inside +-zR (the ion is not axially trapped,
    as happens for a weak purely optical axial confinement).
    """
    if not include_radiation_pressure:
        return 0.0
    from scipy.optimize import bisect
    axial_curv = setup.static_curvatures[2]
    mass = setup.ion.total_mass

    def axial_force(z):
        f = mean_force_at(setup, (0.0, 0.0, z)).total[2]
        return f - mass * axial_curv * z

    zr = setup.beam.rayleigh_range
    f0 = axial_force(0.0)
    if f0 == 0.0:
        return 0.0
    grid = np.linspace(0.0, zr, 129)[1:]
    previous = 0.0
    for z in grid:
        if axial_force(z) <= 0.0:
            return float(bisect(axial_force, previous, z, xtol=xtol))
        previous = z
    raise NoRoot("no axial force equilibrium within one Rayleigh range; "
                 "radiation pressure exceeds the available restoring force")


def dominant_frequency(times, values) -> float:
    """Dominant oscillation frequency of a uniformly sampled signal, rad/s.

    FFT peak (Hann window) refined by maximising the windowed projection
    amplitude; accurate to ~1e-8 relative for clean tones over hundreds
    of periods.
    """
    from scipy.optimize import minimize_scalar
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(times)
    dt = times[1] - times[0]
    windowed = (values - values.mean()) * np.hanning(n)
    spectrum = np.abs(np.fft.rfft(windowed))
    peak = int(np.argmax(spectrum[1:])) + 1
    bin_width = 2.0 * np.pi / (n * dt)
    seed = peak * bin_width

    def negative_projection(omega):
        return -abs(np.sum(windowed * np.exp(-1j * omega * times)))

    result = minimize_scalar(negative_projection,
                             bounds=(seed - bin_width, seed + bin_width),
                             method="bounded",
                             options={"xatol": bin_width * 1e-9})
    return float(result.x)
