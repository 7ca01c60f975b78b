"""Unit conversions between SI internals and interface conventions.

Everything inside the package is strict SI with angular frequencies in
rad/s.  Configuration files and reports use the conventions common in the
trapped-ion literature (2pi x Hz, mK, nm, um); all conversions happen here
so they stay involutive and auditable.
"""

import math

TWO_PI = 2.0 * math.pi

from .constants import CONST


def rad_s_from_2pi_hz(f):
    """Angular frequency (rad/s) from a frequency quoted as 2pi x f Hz."""
    return TWO_PI * f


def two_pi_hz_from_rad_s(omega):
    """Inverse of :func:`rad_s_from_2pi_hz`."""
    return omega / TWO_PI


def rad_s_from_2pi_mhz(f):
    return TWO_PI * f * 1e6


def two_pi_mhz_from_rad_s(omega):
    return omega / (TWO_PI * 1e6)


def rad_s_from_2pi_ghz(f):
    return TWO_PI * f * 1e9


def two_pi_ghz_from_rad_s(omega):
    return omega / (TWO_PI * 1e9)


def curvature_from_2pi_khz_sq(v):
    """Signed (2pi x kHz)^2 curvature to signed (rad/s)^2."""
    return v * (TWO_PI * 1e3) ** 2


def curvature_to_2pi_khz_sq(c):
    return c / (TWO_PI * 1e3) ** 2


def joule_from_mk(t_mk):
    """Energy from an equivalent temperature in millikelvin."""
    return CONST.kB * t_mk * 1e-3


def mk_from_joule(energy):
    return energy / CONST.kB * 1e3


def metre_from_nm(x):
    return x * 1e-9


def nm_from_metre(x):
    return x * 1e9


def metre_from_um(x):
    return x * 1e-6


def um_from_metre(x):
    return x * 1e6


def watt_from_mw(p):
    return p * 1e-3


def mw_from_watt(p):
    return p * 1e3


def format_sig(x, digits: int = 9) -> str:
    """Format a float with a fixed number of significant digits."""
    if isinstance(x, bool):
        return "1" if x else "0"
    return f"{x:.{digits}g}"
