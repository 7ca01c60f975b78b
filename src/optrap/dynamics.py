"""Time-domain dynamics of the ion centre of mass.

Two deliberately separate integrations:

* :func:`integrate_full` follows the secular motion in the full Gaussian
  trap under the optical mean force (the fast optical oscillation is
  excluded by construction, matching the time-scale separation the trap
  analysis rests on).  DOP853, the adaptive 8th-order Dormand-Prince
  pair (Hairer, Norsett & Wanner, *Solving ODEs I*), runs through
  :func:`optrap.integrators.solve_ivp`, the package's port of scipy's
  code path, tested bit for bit against scipy.  Its right-hand side is
  one kernel per run, :func:`~optrap.dipole_trap.secular_rhs`, on Python
  floats through libm's exp, calling no public force function;
  ``metadata["nfev"]`` keeps the integrator's count of evaluations.

* :func:`integrate_driven` solves the charge-monopole driven harmonic
  oscillator M x'' = Q E cos(w_d t) - M w0^2 x with the fixed-step RK8
  kernel of :mod:`optrap.integrators` (the one the Mathieu monodromy
  uses), for drive/secular ratios up to 1e6.  The ODE is linear, so one
  step is an affine map; the run takes that map from four one-step
  kernel calls and evaluates the recurrence at every step in closed form
  (eigen-angle and steady state), with no stepping loop.  The physical
  ratio (~1e10) is validated through the analytic steady state and its
  (w0/w_d)^2 scaling law, not by direct integration.

Trajectory CSV cells are "%.12g" (``format_sig(x, 12)``) of Python floats
from ``tolist()``, one block of ``CSV_BLOCK_ROWS`` rows at a time, so that
the table never exists whole, as Python floats or as one array.

Radiation pressure shifts the axial equilibrium away from the focus;
:func:`equilibrium_shift` locates that equilibrium by a bracketed
bisection of the total axial force (dipole + radiation pressure + static
restoring force).  That bisection and the bounded minimiser of
:func:`dominant_frequency` are ports of scipy's loops, so that no command
imports scipy.
"""

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (EscapedTrap, InitialConditionWarning, NoRoot, Resonance,
                     StepFailure, UnreachableScale)
from .integrators import rk8_scalar_oscillator, solve_ivp
from .model import TrapSetup
from .dipole_trap import (check_force_model, effective_potential_at,
                          mean_force_at, secular_rhs)

ESCAPE_RADIUS_WAISTS = 100.0
INITIAL_WARNING_WAISTS = 5.0
# smallest tolerances: atol = 0 hangs DOP853 on state components that stay
# exactly zero (0/0 error ratios), 1e-100 ends cleanly; 100 eps is scipy's
# floor on rtol (it raises a smaller one with a warning), kept as a refusal
MIN_ATOL = 1e-100
MIN_RTOL = 100 * sys.float_info.epsilon
DEFAULT_SAMPLES = 4097   # integrate_full's output samples
MIN_STEPS_PER_PERIOD = 64   # integrate_driven's floor on steps per period
CSV_BLOCK_ROWS = 512     # trajectory CSV rows formatted per block


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
        columns = (self.times, self.positions, self.velocities,
                   self.kinetic_energy, self.potential_energy,
                   self.total_energy)
        row_format = ",".join(["%.12g"] * 10)
        parts = ["t,x,y,z,vx,vy,vz,E_kin,E_pot,E_tot"]
        for start in range(0, len(self.times), CSV_BLOCK_ROWS):
            block = np.column_stack([column[start:start + CSV_BLOCK_ROWS]
                                     for column in columns])
            parts.append("\n".join([row_format] * len(block))
                         % tuple(block.ravel().tolist()))
        return "\n".join(parts) + "\n"


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

    Raises :class:`EscapedTrap` past 100 waists (at t = 0 for a start
    there) and :class:`StepFailure` if the tolerances cannot be met;
    ``ValueError``, before integrating, for ``atol`` below ``MIN_ATOL``,
    ``rtol`` below ``MIN_RTOL``, ``t_end`` <= 0, a non-finite start or a
    ``force_model`` outside ``FORCE_MODELS``.
    """
    if not (atol >= MIN_ATOL and rtol >= MIN_RTOL):
        raise ValueError(f"need atol >= {MIN_ATOL:g} and rtol >= {MIN_RTOL!r}"
                         f", got atol={atol!r}, rtol={rtol!r}")
    if not t_end > 0:
        raise ValueError(f"need t_end > 0, got {t_end!r}")
    check_force_model(force_model)
    position0 = np.asarray(initial[0], dtype=float)
    velocity0 = np.asarray(initial[1], dtype=float)
    if position0.shape != (3,) or velocity0.shape != (3,):
        raise ValueError("initial position and velocity must be 3-vectors")
    if not (np.all(np.isfinite(position0)) and np.all(np.isfinite(velocity0))):
        raise ValueError("initial position and velocity must be finite")
    w0 = setup.beam.waist_radius
    # the confinement scale is anisotropic: waists transversally,
    # Rayleigh ranges along the beam
    if (np.linalg.norm(position0[:2]) > INITIAL_WARNING_WAISTS * w0
            or abs(position0[2])
            > INITIAL_WARNING_WAISTS * setup.beam.rayleigh_range):
        warnings.warn("initial position beyond 5 trap length scales from "
                      "the focus", InitialConditionWarning, stacklevel=2)
    def escaped(_t, y):    # the terminal event, on an outward crossing
        return np.linalg.norm(y[:3]) - ESCAPE_RADIUS_WAISTS * w0

    y0 = np.concatenate([position0, velocity0])
    # the event fires only on an outward crossing, so a start past it is
    # refused here (far out the force can be NaN and the solver hangs)
    if escaped(0.0, y0) >= 0:
        raise EscapedTrap(f"ion beyond {ESCAPE_RADIUS_WAISTS:g} waists at "
                          "t = 0 s")
    sol = solve_ivp(secular_rhs(setup, force_model,
                                include_radiation_pressure), (0.0, t_end), y0,
                    t_eval=np.linspace(0.0, t_end, samples), rtol=rtol,
                    atol=atol, event=escaped)
    if sol.status == 1:
        raise EscapedTrap(f"ion beyond {ESCAPE_RADIUS_WAISTS:g} waists at "
                          f"t = {sol.t_events[0][0]:.3e} s")
    if sol.status != 0:
        raise StepFailure(sol.message)

    pos = sol.y[:3].T
    vel = sol.y[3:].T
    kin = 0.5 * setup.ion.total_mass * np.sum(vel ** 2, axis=-1)
    pot = effective_potential_at(setup, pos, mode=force_model) \
        + _static_potential(setup, pos)
    return TrajectoryRecord(times=sol.t, positions=pos, velocities=vel,
                            kinetic_energy=kin, potential_energy=pot,
                            metadata={"integrator": "DOP853",
                                      "nfev": sol.nfev})


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
        # a subnormal w0^2 keeps too few bits for the restoring force
        if self.omega0 ** 2 < sys.float_info.min:
            raise UnreachableScale(
                f"omega0 = {self.omega0:.3g} rad/s: its square is below the "
                f"smallest normal float ({sys.float_info.min:.3g}), outside "
                "the float range the integration resolves")
        if abs(self.drive_frequency - self.omega0) < 1e-3 * self.omega0:
            raise Resonance("drive within 0.1% of the secular frequency; "
                            "no steady state separable from the transient")

    @property
    def steady_amplitude(self) -> float:
        """Signed amplitude A = Q E / (M (w_d^2 - w0^2)) of the exact
        steady state x_p(t) = -A cos(w_d t), m."""
        return float(self.charge * self.field_amplitude / (
            self.mass * (self.drive_frequency ** 2 - self.omega0 ** 2)))

    @property
    def drive_kinetic_energy(self) -> float:
        """Time-averaged kinetic energy M A^2 w_d^2 / 4 of the drive motion,
        J; for w_d >> w0 exactly half of (Q A_vec)^2/(2M) with
        A_vec = E/w_d."""
        return float(self.mass * self.steady_amplitude ** 2
                     * self.drive_frequency ** 2 / 4.0)


def exact_driven_position(spec: DrivenOscillatorSpec, t):
    """Full closed-form solution x(t) for the spec's initial conditions."""
    amp = spec.steady_amplitude
    xh0 = spec.x0 + amp          # x - x_p at t = 0
    return (-amp * np.cos(spec.drive_frequency * t)
            + xh0 * np.cos(spec.omega0 * t)
            + (spec.v0 / spec.omega0) * np.sin(spec.omega0 * t))


def driven_steps(omega0: float, drive_frequency: float, t_end: float = None,
                 drive_periods: int = None,
                 steps_per_period: int = MIN_STEPS_PER_PERIOD):
    """(t_end, step count) of :func:`integrate_driven`.

    The step divides the period of the fastest frequency (max(w_d, w0))
    into at least ``steps_per_period`` >= ``MIN_STEPS_PER_PERIOD`` pieces.
    The duration is ``t_end`` or a number of drive periods.  The count is
    max(ceil(t_end/h - 1e-9), 1), a whole float (inf past the float range),
    so t_end/h up to 1e-9 past an integer k gives k steps.
    """
    if (t_end is None) == (drive_periods is None):
        raise ValueError("specify exactly one of t_end, drive_periods")
    if steps_per_period < MIN_STEPS_PER_PERIOD:
        raise ValueError(f"need steps_per_period >= {MIN_STEPS_PER_PERIOD}")
    if drive_periods is not None:
        t_end = drive_periods * 2.0 * np.pi / drive_frequency
    h = (2.0 * np.pi / max(drive_frequency, omega0)) / steps_per_period
    return t_end, max(float(np.ceil(t_end / h - 1e-9)), 1.0)


def integrate_driven(spec: DrivenOscillatorSpec, t_end: float = None,
                     drive_periods: int = None,
                     steps_per_period: int = MIN_STEPS_PER_PERIOD
                     ) -> TrajectoryRecord:
    """Fixed-step RK8 solution of the driven oscillator at every step of
    :func:`driven_steps`: the kernel's one-step map y -> P y + Re(G
    e^{i w_d t}), applied k times in closed form.  Raises
    :class:`UnreachableScale` for w_d/w0 > 1e6.
    """
    ratio = spec.drive_frequency / spec.omega0
    if ratio > 1e6:
        raise UnreachableScale(
            f"w_d/w0 = {ratio:.3e} > 1e6; validate via the analytic "
            "steady state and its scaling law instead")
    t_end, nsteps = driven_steps(spec.omega0, spec.drive_frequency, t_end,
                                 drive_periods, steps_per_period)
    nsteps = int(nsteps)

    # Python floats throughout, so the RK8 float path stays in float math
    # and the steady state below in Python complex math (t_end is a numpy
    # float for a numpy drive frequency)
    h = float(t_end / nsteps)
    qe_over_m = float(spec.charge * spec.field_amplitude / spec.mass)
    w0_sq = float(spec.omega0 ** 2)
    wd = float(spec.drive_frequency)
    cos, sin = math.cos, math.sin

    def one_step(accel, v0=0.0):
        """(x, v) after one kernel step of size h from (0, v0) at t = 0."""
        return rk8_scalar_oscillator(accel, 0.0, h, 1, 0.0, v0)

    # One step of this linear ODE is the affine map
    # y_{k+1} = P y_k + Re(G e^{i wd t_k}).  For x'' = -w0^2 x a Runge-Kutta
    # step is a polynomial in h A with A^2 = -w0^2 I, so P = I + D with
    # D = [[d, p01], [p10, d]].  The unit-x step runs on x - 1, so that d
    # keeps the low bits that 1 + d would round away (rho^k repeats them).
    d, p10 = one_step(lambda t, x: -w0_sq * (x + 1.0))
    p01, _ = one_step(lambda t, x: -w0_sq * x, v0=1.0)
    gc_x, gc_v = one_step(lambda t, x: qe_over_m * cos(wd * t) - w0_sq * x)
    gs_x, gs_v = one_step(lambda t, x: qe_over_m * sin(wd * t) - w0_sq * x)
    g_x, g_v = complex(gc_x, gs_x), complex(gc_v, gs_v)
    # P = rho (cos(phi) I + sin(phi) K), K = [[0, p01], [p10, 0]] / gamma
    # (K^2 = -I), with rho^2 = det P = (1 + d)^2 - p01 p10
    gamma = math.sqrt(-p01 * p10)
    phi = math.atan2(gamma, 1.0 + d)
    log_rho = 0.5 * math.log1p(d * (2.0 + d) - p01 * p10)
    # the steady state Re(c e^{i wd t_k}) solves (e^{i wd h} I - P) c = G,
    # by Cramer's rule: x and v differ in scale by ~wd, and a pivoting
    # solve lets the error of one leak into the other
    diag = complex(-2.0 * sin(wd * h / 2.0) ** 2 - d, sin(wd * h))
    det = diag * diag - p01 * p10
    c_x = (diag * g_x + p01 * g_v) / det
    c_v = (p10 * g_x + diag * g_v) / det

    k = np.arange(nsteps + 1)
    ts = k * h
    drive_cos, drive_sin = np.cos(wd * ts), np.sin(wd * ts)
    u_x, u_v = spec.x0 - c_x.real, spec.v0 - c_v.real
    decay = np.exp(k * log_rho)
    free_cos, free_sin = decay * np.cos(k * phi), decay * np.sin(k * phi)
    xs = (free_cos * u_x + free_sin * (p01 / gamma * u_v)
          + c_x.real * drive_cos - c_x.imag * drive_sin)
    vs = (free_cos * u_v + free_sin * (p10 / gamma * u_x)
          + c_v.real * drive_cos - c_v.imag * drive_sin)
    positions = np.zeros((len(ts), 3))
    positions[:, 0] = xs
    velocities = np.zeros_like(positions)
    velocities[:, 0] = vs
    # an energy past the float range is inf; the CLI refuses the run
    kin = 0.5 * spec.mass * vs ** 2
    pot = 0.5 * spec.mass * w0_sq * xs ** 2
    return TrajectoryRecord(times=ts, positions=positions,
                            velocities=velocities, kinetic_energy=kin,
                            potential_energy=pot,
                            metadata={"integrator": "rk8-fixed",
                                      "rk8_steps": 4})   # one_step's calls


def steady_drive_amplitude(record: TrajectoryRecord,
                           drive_frequency: float) -> float:
    """Amplitude of the -cos(w_d t) quadrature over whole drive periods.

    Projects the sampled positions onto cos(w_d t) over an integer number
    of drive periods (the largest that fits), which isolates
    the steady drive response when the secular component is negligible or
    averages out.
    """
    period = 2.0 * np.pi / drive_frequency
    dt = record.times[1] - record.times[0]
    per_period = period / dt
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

def equilibrium_shift(setup: TrapSetup) -> float:
    """Axial displacement of the equilibrium due to radiation pressure, m.

    Solves total axial force = 0 (dipole + radiation pressure + static
    restoring) by bracketed bisection within one Rayleigh range of the
    focus.  Raises :class:`NoRoot` when radiation pressure exceeds the
    maximum restoring force inside +-zR (the ion is not axially trapped,
    as happens for a weak purely optical axial confinement).
    """
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
            return float(_bisect(axial_force, previous, z, xtol=1e-12))
        previous = z
    raise NoRoot("no axial force equilibrium within one Rayleigh range; "
                 "radiation pressure exceeds the available restoring force")


def _bisect(f, xa, xb, xtol, maxiter=100):
    """Root of f between xa and xb, where f changes sign or is zero:
    scipy.optimize.bisect's C loop at rtol = 4 eps, returning its bits.
    Raises :class:`NoRoot` after ``maxiter`` halvings, as scipy raises."""
    rtol = 4 * sys.float_info.epsilon
    fa, fb = f(xa), f(xb)
    if fa == 0 or fb == 0:
        return xa if fa == 0 else xb
    dm = xb - xa
    for _ in range(maxiter):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if fm * fa >= 0:
            xa = xm
        if fm == 0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise NoRoot(f"bisection did not converge in {maxiter} halvings; "
                 f"last midpoint {xm!r}")


def _minimize_bounded(func, a, b, xatol):
    """Minimum of func on [a, b]: scipy's _minimize_scalar_bounded loop
    (Brent's fmin, golden section with parabolic steps) at maxiter 500,
    returning its x, with scipy's operations for scipy's bits."""
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = func(xf)
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500 or not np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
            return xf
        golden = True
        if np.abs(e) > tol1:    # try a parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q, r, e = np.abs(q), e, rat
            golden = not (np.abs(p) < np.abs(0.5 * q * r)
                          and p > q * (a - xf) and p < q * (b - xf))
            if not golden:
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu


def dominant_frequency(times, values) -> float:
    """Dominant oscillation frequency of a uniformly sampled signal, rad/s.

    FFT peak (Hann window) refined by maximising the windowed projection
    amplitude; accurate to ~1e-8 relative for clean tones over hundreds
    of periods.  NaN if the signal does not move (all values equal) or
    peaks in the lowest non-zero bin (fewer than about two cycles); equal
    bin magnitudes resolve to the lower bin, so a tie with that bin is NaN.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.min() == values.max():
        return float("nan")
    n = len(times)
    dt = times[1] - times[0]
    windowed = (values - values.mean()) * np.hanning(n)
    spectrum = np.abs(np.fft.rfft(windowed))
    peak = int(np.argmax(spectrum[1:])) + 1
    if peak == 1:
        return float("nan")
    bin_width = 2.0 * np.pi / (n * dt)
    seed = peak * bin_width

    def negative_projection(omega):
        return -abs(np.sum(windowed * np.exp(-1j * omega * times)))

    return float(_minimize_bounded(negative_projection, seed - bin_width,
                                   seed + bin_width, bin_width * 1e-9))
