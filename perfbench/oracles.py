"""Independent oracles for the benchmark's outputs.

Nothing here imports ``optrap``: every expected value comes from
scipy (Mathieu characteristic values, an adaptive DOP853 integration),
closed forms written out below, or the literals of the generated
configs.  Physical constants come from ``scipy.constants`` so that the
oracle does not share the package's constant table either.  The heavier
scipy modules are imported inside the checks that use them: the worker
imports this module before its set-up time is taken, and ``setup_s``
should show the package's imports, not the oracle's.
"""

import math

import numpy as np
from scipy import constants as sc

KB = sc.k
AMU = sc.physical_constants["atomic mass constant"][0]
E_CHARGE = sc.e
C_LIGHT = sc.c

# |a - characteristic value| below which a stability cell is excluded
# from the comparison: the package decides it by |trace M| < 2, and
# within this band round-off, not the physics, picks the side.
STABILITY_BAND = 1e-6
DET_TOL = 1e-9                 # |det M - 1|, Liouville
FLOQUET_REL_TOL = 1e-6         # micromotion ratio vs the DOP853 reference
MICROMOTION_LAW_TOL = 0.05     # ratio vs the two-sideband |q|/2 law
DRIVEN_REL_TOL = 1e-7          # trajectory vs closed form, of max |x|
ENERGY_DRIFT_TOL = 1e-8        # max |E - E0| / |E0|
SECULAR_FREQ_TOL = 1e-3        # FFT frequency vs sqrt(4 U0 / (M w0^2))
REPORT_REL_TOL = 1e-8


def parse_csv(text):
    """(header, float array) of a CSV with one header line."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


# ---------------------------------------------------------------------------
# Mathieu stability chart
# ---------------------------------------------------------------------------

def mathieu_stable(a, q, orders=6):
    """Expected stability of x'' + (a - 2q cos 2t) x = 0, and a near-boundary mask.

    Stable iff a_n(|q|) < a < b_{n+1}(|q|) for some n >= 0, with the
    characteristic values of scipy.special (same a - 2q cos 2t convention).
    """
    from scipy.special import mathieu_a, mathieu_b
    a = np.asarray(a, float)
    q = np.abs(np.asarray(q, float))
    stable = np.zeros(a.shape, bool)
    near = np.zeros(a.shape, bool)
    for n in range(orders):
        lo = mathieu_a(n, q)
        hi = mathieu_b(n + 1, q)
        stable |= (a > lo) & (a < hi)
        near |= (np.abs(a - lo) < STABILITY_BAND) | (np.abs(a - hi) < STABILITY_BAND)
    return stable, near


def check_stability_csv(text, a_expected, q_expected):
    """None if ``stability.csv`` matches the grid and the chart, else a reason.

    Also returns the number of cells excluded near a boundary.
    """
    header, rows = parse_csv(text)
    if header != ["a", "q", "stable", "exponent"]:
        return f"unexpected header {header}", 0
    aa, qq = np.meshgrid(a_expected, q_expected, indexing="ij")
    if len(rows) != aa.size:
        return f"{len(rows)} rows, expected {aa.size}", 0
    if not (np.allclose(rows[:, 0], aa.ravel(), rtol=1e-8, atol=1e-12)
            and np.allclose(rows[:, 1], qq.ravel(), rtol=1e-8, atol=1e-12)):
        return "grid coordinates differ from the requested grid", 0
    flags = rows[:, 2]
    if not np.all((flags == 0) | (flags == 1)):
        return "stable column is not 0/1", 0
    expected, near = mathieu_stable(rows[:, 0], rows[:, 1])
    bad = (flags.astype(bool) != expected) & ~near
    if np.any(bad):
        i = int(np.argmax(bad))
        return (f"{int(bad.sum())} cells disagree with the Mathieu chart, first "
                f"at a={rows[i, 0]}, q={rows[i, 1]}"), int(near.sum())
    expo = rows[:, 3]
    if not np.all(np.isfinite(expo)) or np.any(expo[flags == 1] < 0) \
            or np.any(expo[flags == 1] > 1):
        return "stable exponents outside [0, 1]", int(near.sum())
    return None, int(near.sum())


# ---------------------------------------------------------------------------
# Floquet micromotion
# ---------------------------------------------------------------------------

def floquet_reference(a, q, samples=128):
    """(nu, micromotion ratio) of the stable Mathieu mode by DOP853.

    The fundamental matrix over one period [0, pi] and the Floquet mode
    x(t) = exp(i nu t) sum_n c_n exp(2 i n t) come from scipy's adaptive
    integrator; the ratio is (|c_1| + |c_-1|) / |c_0|.
    """
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        coef = a - 2.0 * q * np.cos(2.0 * t)
        return [y[1], -coef * y[0], y[3], -coef * y[2]]

    tau = np.arange(samples) * (np.pi / samples)
    sol = solve_ivp(rhs, (0.0, np.pi), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    mono = np.array([[sol.y[0, -1], sol.y[2, -1]], [sol.y[1, -1], sol.y[3, -1]]])
    evals, evecs = np.linalg.eig(mono)
    k = int(np.argmax(evals.imag))
    nu = float(np.angle(evals[k]) / np.pi)
    states = sol.sol(tau)                       # (4, samples)
    x = states[0] * evecs[0, k] + states[2] * evecs[1, k]
    coeffs = np.fft.fft(x * np.exp(-1j * nu * tau)) / samples
    return nu, float((abs(coeffs[1]) + abs(coeffs[-1])) / abs(coeffs[0]))


def micromotion_law(a, q):
    """|q|/2 law with its two-sideband correction 1/(1 - beta^2).

    Hill's recursion truncated at c_{+-1} gives
    (|c_1| + |c_-1|)/|c_0| = (|q|/2) / (1 - beta^2) with
    beta^2 = a + q^2/2; at optical parameters beta^2 ~ 1e-20 and this is
    the bare |q|/2 law.
    """
    return 0.5 * abs(q) / (1.0 - (a + 0.5 * q * q))


def check_floquet(result, a, q):
    """None if a FloquetResult of a stable point passes, else a reason."""
    mono = np.asarray(result.monodromy_matrix, float)
    det = mono[0, 0] * mono[1, 1] - mono[0, 1] * mono[1, 0]
    if abs(det - 1.0) > DET_TOL:
        return f"|det M - 1| = {abs(det - 1.0):.3e}"
    if not result.stable:
        return "stable point reported unstable"
    ratio = result.micromotion_ratio
    law = micromotion_law(a, q)
    if not abs(ratio - law) <= MICROMOTION_LAW_TOL * law:
        return f"micromotion ratio {ratio} vs |q|/2 law {law}"
    nu_ref, ratio_ref = floquet_reference(a, q)
    if not abs(ratio - ratio_ref) <= FLOQUET_REL_TOL * ratio_ref:
        return f"micromotion ratio {ratio} vs DOP853 reference {ratio_ref}"
    if not abs(result.characteristic_exponent - nu_ref) <= 1e-8:
        return (f"exponent {result.characteristic_exponent} vs DOP853 "
                f"reference {nu_ref}")
    return None


# ---------------------------------------------------------------------------
# driven oscillator
# ---------------------------------------------------------------------------

def driven_closed_form(cfg, t):
    """Exact x(t), v(t) of M x'' = Q E cos(w_d t) - M w0^2 x for a config."""
    opts = cfg["simulate"]["options"]
    init = cfg["simulate"]["initial"]
    mass = cfg["ion"]["mass_u"] * AMU
    charge = cfg["ion"]["charge_e"] * E_CHARGE
    w0 = 2.0 * math.pi * opts["omega0_2pi_kHz"] * 1e3
    wd = opts["drive_ratio"] * w0
    amp = charge * opts["field_V_m"] / (mass * (wd ** 2 - w0 ** 2))
    x0, v0 = init["position_m"], init["velocity_m_s"]
    x = -amp * np.cos(wd * t) + (x0 + amp) * np.cos(w0 * t) + (v0 / w0) * np.sin(w0 * t)
    v = (amp * wd * np.sin(wd * t) - (x0 + amp) * w0 * np.sin(w0 * t)
         + v0 * np.cos(w0 * t))
    return x, v


def check_driven_csv(text, cfg):
    """None if a driven trajectory.csv matches the closed form, else a reason."""
    header, rows = parse_csv(text)
    if header[:5] != ["t", "x", "y", "z", "vx"]:
        return f"unexpected header {header}"
    opts = cfg["simulate"]["options"]
    w0 = 2.0 * math.pi * opts["omega0_2pi_kHz"] * 1e3
    t_end = opts["drive_periods"] * 2.0 * math.pi / (opts["drive_ratio"] * w0)
    if not math.isclose(rows[-1, 0], t_end, rel_tol=1e-9):
        return f"trajectory ends at {rows[-1, 0]}, expected {t_end}"
    x_ref, v_ref = driven_closed_form(cfg, rows[:, 0])
    for name, got, ref in (("x", rows[:, 1], x_ref), ("vx", rows[:, 4], v_ref)):
        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        if not err <= DRIVEN_REL_TOL:
            return f"{name} differs from the closed form by {err:.3e} of its maximum"
    return None


# ---------------------------------------------------------------------------
# secular motion in the Gaussian trap
# ---------------------------------------------------------------------------

def radial_frequency(cfg):
    """sqrt(4 U0 / (M w0^2)) from the config literals, rad/s."""
    u0 = cfg["laser"]["depth_mK"] * 1e-3 * KB
    mass = cfg["ion"]["mass_u"] * AMU
    w0 = cfg["laser"]["waist_um"] * 1e-6
    return math.sqrt(4.0 * u0 / (mass * w0 ** 2))


def axial_frequency(cfg):
    """sqrt(2 U0 / (M zR^2)) with zR = pi w0^2 / lambda, rad/s."""
    u0 = cfg["laser"]["depth_mK"] * 1e-3 * KB
    mass = cfg["ion"]["mass_u"] * AMU
    w0 = cfg["laser"]["waist_um"] * 1e-6
    zr = math.pi * w0 ** 2 / (cfg["transition"]["wavelength_nm"] * 1e-9)
    return math.sqrt(2.0 * u0 / (mass * zr ** 2))


def fft_frequency(t, s, pad=16):
    """Dominant angular frequency of a uniformly sampled signal.

    Hann window, zero padding to ``pad`` times the length, and a parabola
    through the log magnitudes of the peak bin and its neighbours.
    """
    n = len(s)
    dt = (t[-1] - t[0]) / (n - 1)
    size = 1 << int(math.ceil(math.log2(pad * n)))
    spec = np.abs(np.fft.rfft((s - s.mean()) * np.hanning(n), size))
    k = int(np.argmax(spec[1:-1])) + 1
    lm, l0, lp = np.log(spec[k - 1:k + 2])
    shift = 0.5 * (lm - lp) / (lm - 2.0 * l0 + lp)
    return 2.0 * math.pi * (k + shift) / (size * dt)


def check_secular_csv(text, cfg, direction):
    """None if a full-mode trajectory.csv conserves energy and oscillates
    at the harmonic radial frequency, else a reason."""
    header, rows = parse_csv(text)
    if header != ["t", "x", "y", "z", "vx", "vy", "vz", "E_kin", "E_pot", "E_tot"]:
        return f"unexpected header {header}"
    samples = cfg["simulate"]["options"]["samples"]
    if len(rows) != samples:
        return f"{len(rows)} samples, expected {samples}"
    energy = rows[:, 9]
    drift = np.max(np.abs(energy - energy[0])) / abs(energy[0])
    if not drift <= ENERGY_DRIFT_TOL:
        return f"relative energy drift {drift:.3e}"
    s = rows[:, 1] * direction[0] + rows[:, 2] * direction[1]
    freq = fft_frequency(rows[:, 0], s)
    expected = radial_frequency(cfg)
    if not abs(freq / expected - 1.0) <= SECULAR_FREQ_TOL:
        return f"FFT frequency {freq} vs harmonic {expected}"
    return None


# ---------------------------------------------------------------------------
# trap report
# ---------------------------------------------------------------------------

def optical_frequencies(cfg):
    w_r = radial_frequency(cfg)
    return (w_r, w_r, axial_frequency(cfg))


def anticonfined_axes(cfg):
    """Axes whose static curvature outweighs the optical one, from literals."""
    curv = cfg.get("static", {}).get("curvatures_2pi_kHz_squared", [0.0] * 3)
    scale = (2.0 * math.pi * 1e3) ** 2
    return [i for i, (w, c) in enumerate(zip(optical_frequencies(cfg), curv))
            if w * w + c * scale < 0.0]


def _close(got, expected, rel=REPORT_REL_TOL):
    return abs(got - expected) <= rel * abs(expected)


def check_report(report, cfg):
    """None if a report.json agrees with the config's closed forms, else a reason."""
    trap = report["trap"]
    if not _close(trap["depth_mK"], cfg["laser"]["depth_mK"], 1e-9):
        return f"depth_mK {trap['depth_mK']} vs literal {cfg['laser']['depth_mK']}"
    for axis, (got, ref) in enumerate(zip(trap["optical_trap_frequencies_rad_s"],
                                          optical_frequencies(cfg))):
        if not _close(got, ref):
            return f"optical frequency axis {axis}: {got} vs {ref}"
    omega_l = 2.0 * math.pi * C_LIGHT / (cfg["transition"]["wavelength_nm"] * 1e-9)
    anti = anticonfined_axes(cfg)
    for axis, row in enumerate(report["mathieu"]):
        if row["anticonfined"] != (axis in anti):
            return f"axis {axis} anticonfined={row['anticonfined']}, expected {axis in anti}"
        if row["anticonfined"]:
            continue
        w_opt = optical_frequencies(cfg)[axis]
        if not _close(row["q"], -w_opt ** 2 / (2.0 * omega_l ** 2)):
            return f"axis {axis}: q = {row['q']}"
        if not _close(row["micromotion_ratio"], 0.5 * abs(row["q"]), 1e-12):
            return f"axis {axis}: ratio {row['micromotion_ratio']} != |q|/2"
    return None
