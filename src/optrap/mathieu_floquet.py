"""Mathieu mapping and Floquet stability of the optical micromotion.

The time-dependent optical potential of a harmonically approximated
dipole trap oscillates at twice the laser frequency,

    V(x, t) = (1/2) M w_opt^2 x^2 [1 + cos(2 omega_L t)],

which together with a static curvature w_s^2 maps onto the canonical
Mathieu equation x'' + [a - 2q cos(2 tau)] x = 0 with tau = omega_L t and

    a = (w_opt^2 + w_s^2) / omega_L^2,      q = -w_opt^2 / (2 omega_L^2).

The static field enters ``a`` only.  For an optical trap a and |q| are of
order (w_opt/omega_L)^2 ~ 1e-20, far below anything a numerical Floquet
analysis can resolve; below ``STIFFNESS_THRESHOLD`` the analytic
small-parameter laws are used instead (and flagged).  At numerically
reachable parameters the one-period monodromy matrix is assembled from
the fundamental solutions over the half period [0, pi/2] (the coefficient
is even in tau), integrated with the fixed-step RK8 kernel of
:mod:`optrap.integrators` (on arrays for a scan, on floats for one point;
both give the same bits) at a step count set by the fastest local rate
sqrt(max|a| + 2 max|q|); its multipliers and exponent nu are closed
forms of its entries, and the micromotion content is read off the Floquet
eigenfunction's Fourier coefficients, solved from Hill's recursion given nu.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AnticonfinedAxis, PhysicsError, StiffnessWarning
from .integrators import rk8_oscillator
from .model import TrapSetup
from .units import format_sig
from . import dipole_trap

STIFFNESS_THRESHOLD = 1e-14
STEPS_PER_RATE = 40    # default half-period RK8 steps per unit local rate
MAX_HALF_STEPS = 2 ** 16
HILL_ORDER = 25        # harmonics Hill's recursion keeps beyond the dominant one

AXIS_NAMES = ("x", "y", "z")      # beam frame: transverse, transverse, axial


def _below_resolution(a: float, q: float) -> bool:
    """Where the analytic small-parameter laws, the |q|/2 micromotion law
    among them, replace the numerical Floquet path."""
    return max(abs(a), abs(q)) < STIFFNESS_THRESHOLD


@dataclass(frozen=True)
class MathieuParams:
    """Dimensionless Mathieu parameters of one trap axis.

    The sign of q is kept (stability depends only on |q|; the sign records
    the drive phase convention).  Time is tau = omega_L t.
    """

    a: float
    q: float
    drive_angular_frequency: float    # 2 omega_L for the optical drive, rad/s

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.q)):
            raise ValueError("Mathieu parameters must be finite")


@dataclass(frozen=True)
class FloquetResult:
    """One-period Floquet analysis of a Mathieu equation."""

    monodromy_matrix: np.ndarray       # 2x2 real, det = 1
    floquet_multipliers: tuple         # complex reciprocal pair
    stable: bool                       # |trace| < 2
    characteristic_exponent: float     # nu: multipliers exp(+-i nu pi) if stable,
    #                                    else ln|lambda_max|/pi (growth rate)
    micromotion_ratio: float           # (|c_k+1| + |c_k-1|) / |c_k| about the
    #                                    dominant harmonic k, NaN if unstable
    from_analytic_law: bool = False    # small-parameter law used instead of Fourier


def optical_mathieu_params(setup: TrapSetup, axis: int) -> MathieuParams:
    """Map one axis of the optical + static trap onto Mathieu form.

    ``axis`` indexes the beam frame: 0, 1 transverse, 2 axial.  Raises
    :class:`AnticonfinedAxis` iff the trap summary lists the axis as
    anticonfined, omega_opt^2 + omega_s^2 < 0; it is reported, never
    silently clamped.  The Mathieu test a + q^2/2 > 0 would add q^2/2,
    (omega_opt/omega_L)^2 / 8 of omega_opt^2: below float resolution for
    an optical trap (|q| ~ 1e-20), at most 2.5e-15 where the |q|/2 law
    applies (|q| < 1e-14), and the report refuses any larger |q|.
    """
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2 (beam frame)")
    summary = dipole_trap.trap_summary(setup)
    w_opt = summary.optical_trap_frequencies[axis]
    curv = setup.static_curvatures[axis]
    omega_l = setup.beam.omega_laser
    a = (w_opt ** 2 + curv) / omega_l ** 2
    q = -w_opt ** 2 / (2.0 * omega_l ** 2)
    if axis in summary.anticonfined_axes:
        raise AnticonfinedAxis(
            f"axis {AXIS_NAMES[axis]}: a = {a:.3e}, q = {q:.3e} is not "
            "confining (omega_opt^2 + omega_s^2 < 0)")
    return MathieuParams(a=float(a), q=float(q),
                         drive_angular_frequency=2.0 * omega_l)


def mathieu_monodromy(a, q, steps: int = None):
    """Fundamental matrix of x'' + [a - 2q cos(2 tau)] x = 0 over tau in [0, pi].

    Vectorised over leading axes of ``a`` and ``q``: returns shape
    (..., 2, 2), rows (position, velocity), columns the two fundamental
    solutions.  The coefficient is even in tau, so the matrix follows from
    the fundamental solutions at pi/2 (Magnus & Winkler, *Hill's
    Equation*): with x1, v1, x2, v2 there,
    M = [[x1 v2 + x2 v1, 2 x2 v2], [2 x1 v1, x1 v2 + x2 v1]], which has
    M11 = M22 and det M = W^2 (W = x1 v2 - x2 v1) by construction.

    ``steps`` counts RK8 steps over [0, pi/2].  By default the count is
    set once per call by the fastest local rate, sqrt(max|a| + 2 max|q|)
    but at least 2 (the rate of the coefficient itself), at
    ``STEPS_PER_RATE`` steps per unit rate; past ``MAX_HALF_STEPS`` it
    raises :class:`PhysicsError` naming a, q and the limit.  One (a, q)
    point runs each fundamental solution on floats; an array of points
    runs both at once on (n, 2) arrays.  The bits are the same.
    """
    a_arr, q_arr = np.broadcast_arrays(np.asarray(a, float), np.asarray(q, float))
    if steps is None:
        a_max, q_max = (float(np.max(np.abs(v))) for v in (a_arr, q_arr))
        steps = STEPS_PER_RATE * math.sqrt(max(4.0, a_max + 2.0 * q_max))
        if not steps <= MAX_HALF_STEPS:
            raise PhysicsError(
                f"|a| = {a_max:.6g}, |q| = {q_max:.6g} would need {steps:.3g} "
                "monodromy steps per half period, more than the limit "
                f"{MAX_HALF_STEPS}")
        steps = math.ceil(steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")

    def solve(a, q, x0, v0):
        two_q = 2.0 * q

        def accel(tau, x):
            return -(a - two_q * math.cos(2.0 * tau)) * x

        return rk8_oscillator(accel, 0.0, 0.5 * np.pi / steps, steps, x0, v0)

    if a_arr.ndim == 0:
        (x1, v1), (x2, v2) = (solve(float(a_arr), float(q_arr), x0, v0)
                              for x0, v0 in ((1.0, 0.0), (0.0, 1.0)))
    else:
        n_sys = a_arr.size
        x, v = solve(a_arr.reshape(-1, 1), q_arr.reshape(-1, 1),
                     np.broadcast_to([1.0, 0.0], (n_sys, 2)),
                     np.broadcast_to([0.0, 1.0], (n_sys, 2)))
        (x1, x2), (v1, v2) = x.T, v.T
    diagonal = x1 * v2 + x2 * v1
    mono = np.array([[diagonal, 2.0 * x2 * v2], [2.0 * x1 * v1, diagonal]])
    return np.moveaxis(mono, (0, 1), (-2, -1)).reshape(a_arr.shape + (2, 2))


def _floquet(mono):
    """(stable, exponent, multipliers) of matrices [[d, b], [c, d]].

    The multipliers d +- sqrt(bc) take the root as sqrt|b| sqrt(sign(b) c),
    so that no product overflows.  Stable means |trace| = 2|d| < 2 strictly;
    the exponent is then nu = arg(d + sqrt(bc)) / pi (multipliers
    exp(+-i nu pi)), else the growth rate ln|lambda_max| / pi.
    """
    if not np.all(np.isfinite(mono)):
        raise PhysicsError("monodromy matrix overflows: |a| or |q| is too "
                           "large to integrate over one period")
    d, b, c = mono[..., 0, 0], mono[..., 0, 1], mono[..., 1, 0]
    stable = np.abs(d) < 1.0
    root = np.sqrt(np.abs(b)) * np.emath.sqrt(np.sign(b) * c)
    mults = np.stack([d + root, d - root], axis=-1)
    exponent = np.where(stable, np.angle(mults[..., 0]),
                        np.log(np.max(np.abs(mults), axis=-1)))
    return stable, exponent / np.pi, mults


def floquet_eigenfunction_spectrum(a: float, q: float,
                                   steps: int = None):
    """Characteristic exponent and Fourier coefficients of the stable mode.

    Returns (nu, coeffs) where the Floquet solution is
    x(tau) = exp(i nu tau) sum_n c_n exp(2 i n tau), nu in [0, 1] from the
    monodromy matrix.  The c_n are the null vector of Hill's recursion
    (a - (nu + 2n)^2) c_n - q (c_{n-1} + c_{n+1}) = 0 (McLachlan, *Theory
    and Application of Mathieu Functions*): the matrix is symmetric, so
    that is its eigenvector of the eigenvalue nearest zero.  The dominant
    harmonic sits near |nu + 2n| = sqrt(a), not at n = 0 once sqrt(a) >~ 1,
    so the window |n| <= ``HILL_ORDER`` + ceil(sqrt(|a| + 2|q|) / 2) keeps
    ``HILL_ORDER`` harmonics beyond it.  Returned in DFT order (c_n at
    index n modulo the length).  Needs a stable (a, q) pair.
    """
    stable, nu, _ = _floquet(mathieu_monodromy(a, q, steps=steps))
    if not stable:
        raise ValueError("Fourier extraction needs a stable Mathieu solution")
    order = HILL_ORDER + math.ceil(math.sqrt(abs(a) + 2.0 * abs(q)) / 2.0)
    n = np.arange(-order, order + 1)
    hill = np.diag(a - (nu + 2.0 * n) ** 2) \
        - q * (np.eye(n.size, k=1) + np.eye(n.size, k=-1))
    evals, evecs = np.linalg.eigh(hill)
    null = evecs[:, np.argmin(np.abs(evals))]
    return float(nu), np.roll(null, -order)


def monodromy_stability(params, steps: int = None) -> FloquetResult:
    """Floquet analysis of a MathieuParams (or a bare (a, q) pair).

    Stability criterion: |trace M| < 2 strictly.  Liouville guarantees
    det M = 1 and reciprocal multiplier pairs; at the default step count
    |det M - 1| <= 5e-13 and |lambda1 lambda2 - 1| <= 7e-13 (the product
    is d^2 - bc) on 300 points for each of the seeds 0, 1 and 42 with
    |a|, |q| <= 2 uniform.  Below the stiffness threshold the
    analytic small-parameter laws replace the numerical path (flagged with
    ``from_analytic_law`` and a :class:`StiffnessWarning`).  The
    micromotion ratio is (|c_k+1| + |c_k-1|) / |c_k| about the dominant
    harmonic k = argmax |c_n| of :func:`floquet_eigenfunction_spectrum`;
    k = 0 near the origin of the first stable band.
    """
    if isinstance(params, MathieuParams):
        a, q = params.a, params.q
    else:
        a, q = float(params[0]), float(params[1])

    analytic = _below_resolution(a, q)
    if analytic:
        warnings.warn(
            f"a = {a:.3e}, |q| = {abs(q):.3e} below numerical Floquet "
            "resolution; reporting analytic small-parameter laws",
            StiffnessWarning, stacklevel=2)
        # harmonic limit x'' + b^2 x = 0, b = sqrt(a + q^2/2) (imaginary if
        # a + q^2/2 < 0; b = 0 gives [[1, pi], [0, 1]]), over one period
        beta_sq = a + 0.5 * q ** 2
        b = np.emath.sqrt(beta_sq)
        cos_b, sinc_b = np.cos(np.pi * b), np.pi * np.sinc(b)
        mono = np.real([[cos_b, sinc_b], [-beta_sq * sinc_b, cos_b]])
        phase = 1j * np.pi * np.conj(b)
        mults = (np.exp(phase), np.exp(-phase))
        stable, exponent, ratio = beta_sq > 0.0, abs(b), 0.5 * abs(q)
    else:
        mono = mathieu_monodromy(a, q, steps=steps)
        stable, exponent, mults = _floquet(mono)
        if stable:
            _, coeffs = floquet_eigenfunction_spectrum(a, q, steps=steps)
            k = int(np.argmax(np.abs(coeffs)))
            ratio = float((abs(coeffs[(k + 1) % coeffs.size])
                           + abs(coeffs[k - 1])) / abs(coeffs[k]))
    return FloquetResult(monodromy_matrix=mono,
                         floquet_multipliers=tuple(map(complex, mults)),
                         stable=bool(stable),
                         characteristic_exponent=float(exponent),
                         micromotion_ratio=ratio if stable else float("nan"),
                         from_analytic_law=analytic)


def micromotion_ratio_optical(setup: TrapSetup, axis: int) -> float:
    """Drive-sideband to secular amplitude ratio for one trap axis.

    At optical parameters a, |q| ~ (w0/omega_L)^2 the small-parameter law
    |q|/2 (1 + O(q)) is exact far beyond machine precision, so the value
    (omega_opt/omega_L)^2 / 4 is returned directly.  Like
    :func:`monodromy_stability`, it applies the law only where
    max(|a|, |q|) < ``STIFFNESS_THRESHOLD``; outside that domain (a beam
    or static field far too strong for an optical trap) it raises
    :class:`PhysicsError` naming the axis, a and q.
    """
    params = optical_mathieu_params(setup, axis)
    if not _below_resolution(params.a, params.q):
        raise PhysicsError(
            f"axis {AXIS_NAMES[axis]}: a = {params.a:.3e}, q = {params.q:.3e} "
            "is outside the small-parameter regime of the |q|/2 micromotion "
            f"law (max(|a|, |q|) < {STIFFNESS_THRESHOLD:g})")
    return 0.5 * abs(params.q)


@dataclass(frozen=True)
class StabilityScan:
    """Row-major (a outer, q inner) stability grid."""

    a_values: np.ndarray
    q_values: np.ndarray
    stable: np.ndarray     # (Na, Nq) bool
    exponent: np.ndarray   # (Na, Nq); oscillation exponent nu if stable,
    #                        growth rate ln|lambda|/pi otherwise

    def rows(self):
        for i, a in enumerate(self.a_values):
            for j, q in enumerate(self.q_values):
                yield a, q, bool(self.stable[i, j]), float(self.exponent[i, j])

    def to_csv_text(self) -> str:
        # the CSV interface is pinned at 9 significant digits;
        # TRAP_FLOAT_DIGITS applies to the human-readable report only
        lines = ["a,q,stable,exponent"]
        for a, q, stab, expo in self.rows():
            lines.append(",".join([format_sig(a), format_sig(q),
                                   "1" if stab else "0", format_sig(expo)]))
        return "\n".join(lines) + "\n"


def grid_count(lo: float, hi: float, step: float):
    """Count of lo + k step, k <= (hi - lo)/step + 1e-9 (may pass hi by 1e-9
    steps; inf past float range); range rule: finite, lo <= hi, step > 0."""
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"scan range must be finite, got {lo}:{hi}:{step}")
    if step <= 0 or hi < lo:
        raise ValueError("scan range needs min <= max and step > 0, got "
                         f"{lo}:{hi}:{step}")
    ratio = (hi - lo) / step + 1e-9
    return math.floor(ratio) + 1 if math.isfinite(ratio) else math.inf


def _range_values(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + step * np.arange(grid_count(lo, hi, step))


def stability_scan(a_range, q_range, step, steps: int = None
                   ) -> StabilityScan:
    """Scan the (a, q) plane on a regular grid.

    ``a_range`` and ``q_range`` are (min, max) pairs; ``step`` is a single
    spacing or an (a_step, q_step) pair.  Deterministic: identical inputs
    produce identical grids and identical CSV bytes.
    """
    try:
        step_a, step_q = step
    except TypeError:
        step_a = step_q = step
    a_vals = _range_values(a_range[0], a_range[1], step_a)
    q_vals = _range_values(q_range[0], q_range[1], step_q)
    aa, qq = np.meshgrid(a_vals, q_vals, indexing="ij")
    stable, exponent, _ = _floquet(mathieu_monodromy(aa, qq, steps=steps))
    return StabilityScan(a_values=a_vals, q_values=q_vals,
                         stable=stable, exponent=exponent)
