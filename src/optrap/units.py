"""The 2pi constant and the significant-digit number format.

Everything inside the package is strict SI with angular frequencies in
rad/s.  Each literature-unit key (nm, um, mW, mK, 2pi x MHz/GHz/kHz) is
converted on the line where :mod:`optrap.config` reads it, and
:mod:`optrap.reporting` converts its two outputs (2pi x Hz and mK).
"""

import math

TWO_PI = 2.0 * math.pi


def format_sig(x, digits: int = 9) -> str:
    """Format a float with a fixed number of significant digits."""
    return f"{x:.{digits}g}"
