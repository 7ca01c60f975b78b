"""Runge-Kutta integration: fixed-step RK8 of x'' = accel(t, x), and DOP853.

The 11-stage order-8 scheme of Cooper and Verner (coefficients closed in
sqrt(21)).  :func:`rk8_oscillator` is the one stepping loop, and it
returns only the final state: the Mathieu monodromy (its two fundamental
solutions over the half period, batched over (a, q) points or one point
at a time) runs through it, and the driven oscillator takes its one-step
map from four single steps of :func:`rk8_scalar_oscillator` and
evaluates the recurrence in closed form instead of looping.  Fixed
stepping keeps phase-sensitive comparisons (monodromy matrices, driven
steady states) bit-reproducible across runs.

The adaptive integration of the secular trap dynamics runs on
:func:`solve_ivp`, a port of scipy 1.17.1's ``solve_ivp(method="DOP853")``
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.10) cut down to the
options :func:`optrap.dynamics.integrate_full` passes.  It makes scipy's
numpy calls in scipy's order, so it takes scipy's steps to the bit.
"""

import math
from types import SimpleNamespace

import numpy as np

_S21 = math.sqrt(21.0)

RK8_C = (0.0, 1 / 2, 1 / 2, (7 + _S21) / 14, (7 + _S21) / 14, 1 / 2,
         (7 - _S21) / 14, (7 - _S21) / 14, 1 / 2, (7 + _S21) / 14, 1.0)

RK8_A = (
    (),
    (1 / 2,),
    (1 / 4, 1 / 4),
    (1 / 7, (-7 - 3 * _S21) / 98, (21 + 5 * _S21) / 49),
    ((11 + _S21) / 84, 0.0, (18 + 4 * _S21) / 63, (21 - _S21) / 252),
    ((5 + _S21) / 48, 0.0, (9 + _S21) / 36, (-231 + 14 * _S21) / 360,
     (63 - 7 * _S21) / 80),
    ((10 - _S21) / 42, 0.0, (-432 + 92 * _S21) / 315, (633 - 145 * _S21) / 90,
     (-504 + 115 * _S21) / 70, (63 - 13 * _S21) / 35),
    (1 / 14, 0.0, 0.0, 0.0, (14 - 3 * _S21) / 126, (13 - 3 * _S21) / 63, 1 / 9),
    (1 / 32, 0.0, 0.0, 0.0, (91 - 21 * _S21) / 576, 11 / 72,
     (-385 - 75 * _S21) / 1152, (63 + 13 * _S21) / 128),
    (1 / 14, 0.0, 0.0, 0.0, 1 / 9, (-733 - 147 * _S21) / 2205,
     (515 + 111 * _S21) / 504, (-51 - 11 * _S21) / 56, (132 + 28 * _S21) / 245),
    (0.0, 0.0, 0.0, 0.0, (-42 + 7 * _S21) / 18, (-18 + 28 * _S21) / 45,
     (-273 - 53 * _S21) / 72, (301 + 53 * _S21) / 72, (28 - 28 * _S21) / 45,
     (49 - 7 * _S21) / 18),
)

RK8_B = (1 / 20, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 49 / 180, 16 / 45, 49 / 180,
         1 / 20)

# (j, a_ij) and (i, b_i) pairs of the non-zero tableau entries
_A_NONZERO = tuple(tuple((j, aij) for j, aij in enumerate(row) if aij != 0.0)
                   for row in RK8_A)
_B_NONZERO = tuple((i, bi) for i, bi in enumerate(RK8_B) if bi != 0.0)


def rk8_oscillator(accel, t0: float, h: float, nsteps: int, x0, v0):
    """Integrate x'' = accel(t, x) with ``nsteps`` equal RK8 steps of size h
    from (x0, v0) at t0, and return the final (x, v).  Step n starts at
    t = t0 + n h.

    ``x0`` and ``v0`` may be Python floats or numpy arrays of one shape;
    every update builds a new value (never in place), so both run through
    the same arithmetic in the same order and give the same bits.
    ``accel`` must return the type of ``x``: on the float path a Python
    float (``math.cos``, not ``np.cos``, of the scalar t), since one numpy
    scalar would carry every later stage into numpy-scalar arithmetic.
    """
    if nsteps < 1:
        raise ValueError("nsteps must be >= 1")
    c = [ci * h for ci in RK8_C]
    a = [[(j, h * aij) for j, aij in row] for row in _A_NONZERO]
    (i0, hb0), *b_rest = [(i, h * bi) for i, bi in _B_NONZERO]
    kx = [None] * len(a)
    kv = [None] * len(a)
    x, v = x0, v0
    for n in range(nsteps):
        t = t0 + n * h
        for i, row in enumerate(a):
            xi, vi = x, v
            for j, haij in row:
                xi = xi + haij * kx[j]
                vi = vi + haij * kv[j]
            kx[i] = vi
            kv[i] = accel(t + c[i], xi)
        dx = hb0 * kx[i0]
        dv = hb0 * kv[i0]
        for i, hbi in b_rest:
            dx = dx + hbi * kx[i]
            dv = dv + hbi * kv[i]
        x = x + dx
        v = v + dv
    return x, v


def rk8_scalar_oscillator(accel, t0: float, h: float, nsteps: int,
                          x0: float, v0: float):
    """:func:`rk8_oscillator` on floats: the final (x, v)."""
    return rk8_oscillator(accel, t0, h, nsteps, float(x0), float(v0))


# DOP853's coefficients, the float64 values of scipy's dop853_coefficients:
# stages 0-11 take a step, row 12 of A holds the weights B, stages 13-15 add
# the dense output.  A is listed by the rows of its strict lower triangle.
DOP853_C = np.array([
    0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1., 1., 0.1, 0.2,
    0.7777777777777778])
DOP853_A = np.zeros((16, 16))
DOP853_A[np.tril_indices(16, -1)] = (
    0.05260015195876773, 0.0197250569845379, 0.0591751709536137,
    0.02958758547680685, 0, 0.08876275643042054, 0.2413651341592667, 0,
    -0.8845494793282861, 0.924834003261792, 0.037037037037037035, 0, 0,
    0.17082860872947386, 0.12546768756682242, 0.037109375, 0, 0,
    0.17025221101954405, 0.06021653898045596, -0.017578125,
    0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023, 0.6241109587160757, 0, 0,
    -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996, 0.47766253643826434, 0, 0,
    -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627,
    -0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196, 2.273310147516538, 0, 0,
    -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636, 0.054293734116568765, 0, 0, 0, 0,
    4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259, 0.056167502283047954, 0, 0, 0, 0, 0,
    0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298,
    0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
    0.053541988307438566, -0.05492374857139099, 0, 0, -0.00010834732869724932,
    0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
    -0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
    4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
    2.9475147891527724, -9.15095847217987)
# the 5th- and 3rd-order error estimators and the dense output's rows 3-6
DOP853_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294, 0])
DOP853_E3 = np.array([
    -0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
    0.20136540080403034, 0.02265179219836082, 0])
DOP853_D = np.array([
    -8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
    2.38466765651207, 2.117034582445028, -0.871391583777973,
    2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
    18.148505520854727, -9.194632392478356, -4.436036387594894,
    10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
    -374.5467547226902, -22.113666853125306, 7.733432668472264,
    -30.674084731089398, -9.332130526430229, 15.697238121770845,
    -31.139403219565178, -9.35292435884448, 35.81684148639408,
    19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
    527.8081592054236, -11.57390253995963, 6.8812326946963,
    -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
    -60.19669523126412, 84.32040550667716, 11.99229113618279,
    -25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
    357.6391179106141, 93.40532418362432, -37.45832313645163,
    104.0996495089623, 29.8402934266605, -43.53345659001114, 96.32455395918828,
    -39.17726167561544, -149.72683625798564]).reshape(4, 16)


def _brentq(f, xpre, xcur, xtol, rtol, maxiter=100):
    """Root of f between xpre and xcur by scipy.optimize.brentq's C loop
    (Brent's method), with its bits.  Raises ``ValueError`` if f has one
    sign at both ends, ``RuntimeError`` after ``maxiter`` steps."""
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = abs(spre) > delta and abs(fcur) < abs(fpre)
        if short:
            if xpre == xblk:    # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:               # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)   # else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def solve_ivp(fun, t_span, y0, t_eval, rtol, atol, event):
    """scipy.integrate.solve_ivp(..., method="DOP853", events=event) for a
    forward span, rtol >= 100 eps, a scalar atol and one terminal event
    with direction +1, whatever attributes ``event`` carries.  Returns
    scipy's fields: ``t`` and ``y`` at the ``t_eval`` points reached,
    ``status`` (0 at the span's end, 1 at the event, -1 when the step falls
    below the float spacing), ``message``, ``t_events`` and ``nfev``."""
    t, t_bound = map(float, t_span)
    y, t_eval, atol = (np.asarray(y0, dtype=float), np.asarray(t_eval),
                       np.asarray(atol))
    nfev = 0

    def f_of(t, y):
        nonlocal nfev
        nfev += 1
        return fun(t, y)

    def rms(v):
        return np.linalg.norm(v) / v.size ** 0.5

    # select_initial_step, at error estimator order 7
    f, interval, scale = f_of(t, y), abs(t_bound - t), atol + np.abs(y) * rtol
    d0, d1 = rms(y / scale), rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    d2 = rms((f_of(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 8))
    h_abs = min(100 * h0, h1, interval)
    C, K = DOP853_C.tolist(), np.empty((16, y.size))   # K: the stages
    # K is only written in place, so its views K[:s].T are built once, as
    # are the rows A[s, :s]
    KT = [K[:s].T for s in range(16)]
    A = [DOP853_A[s, :s] for s in range(16)]

    def stages(t, y, h, first, stop):
        for s in range(first, stop):
            K[s] = f_of(t + C[s] * h, y + np.dot(KT[s], A[s]) * h)

    def dense_output():
        """The last step's degree-7 interpolant, from 3 more stages."""
        stages(t_old, y_old, h, 13, 16)
        dy = y - y_old
        F = np.vstack([dy, h * f_old - dy, 2 * dy - h * (f + f_old),
                       h * np.dot(DOP853_D, K)])[::-1]
        start, span, base = t_old, t - t_old, y_old

        def interpolant(times):
            """(n, m) states at m times (or one) in the step."""
            x = np.reshape((times - start) / span, (-1, 1))
            z = np.zeros((x.size, base.size))
            for i, row in enumerate(F):
                z += row
                z *= x if i % 2 == 0 else 1 - x
            return (z + base).T
        return interpolant

    g = event(t, y)
    t_eval_i, t_events = 0, []
    ts, ys = [t_eval[:0]], [np.empty((y.size, 0))]
    status = None
    while status is None:
        # RungeKutta._step_impl, with the step control 0.9 / 0.2 / 10
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while not h_abs < min_step:
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            stages(t, y, h, 1, 12)
            y_new = y + h * np.dot(KT[12], A[12])
            K[12] = f_new = f_of(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5_sq = np.linalg.norm(np.dot(KT[13], DOP853_E5) / scale) ** 2
            err3_sq = np.linalg.norm(np.dot(KT[13], DOP853_E3) / scale) ** 2
            error_norm = 0.0 if err5_sq == 0 and err3_sq == 0 else (
                np.abs(h) * err5_sq
                / np.sqrt((err5_sq + 0.01 * err3_sq) * len(scale)))
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(
                    10, 0.9 * error_norm ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.125)
            rejected = True
        else:
            status = -1
            message = "Required step size is less than spacing between numbers."
            break
        t_old, y_old, f_old = t, y, f
        t, y, f = t_new, y_new, f_new
        if t - t_bound >= 0:
            status = 0
            message = ("The solver successfully reached the end of the "
                       "integration interval.")
        sol, t_last, g_old, g = None, t, g, event(t, y)
        if g_old <= 0 and g >= 0:
            sol = dense_output()
            t_last = _brentq(lambda te: event(te, sol(te)[:, 0]), t_old, t,
                             4 * math.ulp(1.0), 4 * math.ulp(1.0))
            t_events.append(t_last)
            status, message = 1, "A termination event occurred."
        t_eval_i_new = np.searchsorted(t_eval, t_last, side="right")
        if t_eval_i_new > t_eval_i:
            sol = sol or dense_output()
            ts.append(t_eval[t_eval_i:t_eval_i_new])
            ys.append(sol(ts[-1]))
            t_eval_i = t_eval_i_new
    return SimpleNamespace(t=np.hstack(ts), y=np.hstack(ys), status=status,
                           message=message, t_events=[np.asarray(t_events)],
                           nfev=nfev)
