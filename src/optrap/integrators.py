"""Fixed-step 8th-order Runge-Kutta integration of x'' = accel(t, x).

The 11-stage order-8 scheme of Cooper and Verner (coefficients closed in
sqrt(21)).  :func:`rk8_oscillator` is the one stepping loop, and it
returns only the final state: the Mathieu monodromy (its two fundamental
solutions over the half period, batched over (a, q) points or one point
at a time) runs through it, and the driven oscillator takes its one-step
map from four single steps of :func:`rk8_scalar_oscillator` and
evaluates the recurrence in closed form instead of looping.  Fixed
stepping keeps phase-sensitive comparisons (monodromy matrices, driven
steady states) bit-reproducible across runs; adaptive integration for
the secular trap dynamics lives in :mod:`optrap.dynamics` on top of
scipy instead.
"""

import math

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
