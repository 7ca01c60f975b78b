"""Two-level dipole-trap physics.

The optically induced mean force on the centre of mass, after averaging
over the optical oscillation, is

    F = -(hbar delta / 2) grad ln(1 + s) + (hbar Gamma / 2) s/(1+s) k_L n

with s(R) the saturation parameter.  The first term is the conservative
dipole force, the second the radiation pressure along the propagation
axis z.  For weak saturation the dipole force derives from the effective
potential V_eff = (hbar delta / 2) s, which is what the trap depth and
harmonic frequencies reported here are based on; the log form
(hbar delta / 2) ln(1 + s) is the exact antiderivative of the dipolar term
and is available as a separate mode.

s is proportional to the intensity.  The setup keeps s0
(:attr:`~optrap.model.TrapSetup.saturation_at_focus`), which gives the
depth and the optical curvatures, and s0/I0
(:attr:`~optrap.model.TrapSetup.saturation_per_intensity`), which scales
both s = (s0/I0) I and grad s = (s0/I0) grad I.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import CONST
from .errors import (BlueDetunedUnsupported, SaturationValidityWarning,
                     UnreachableScale)
from .model import TrapSetup, intensity_gradient_at, saturation_at

FORCE_MODELS = ("exact_log", "low_sat")  # the modes of dipole_force_at


def check_force_model(mode: str):
    """``ValueError`` unless ``mode`` is one of ``FORCE_MODELS``."""
    if mode not in FORCE_MODELS:
        raise ValueError(f"unknown potential mode: {mode!r} (one of "
                         f"{', '.join(FORCE_MODELS)})")


def effective_potential_at(setup: TrapSetup, position, mode: str = "low_sat"):
    """AC-Stark potential for the centre of mass, J.

    mode="low_sat" : V = (hbar delta / 2) s(R)          (weak drive)
    mode="exact_log": V = (hbar delta / 2) ln(1 + s(R))  (two-level exact)

    The two differ by a relative factor s/2 + O(s^2).  Red detuning
    (delta < 0) makes the potential attractive towards high intensity.
    """
    check_force_model(mode)
    s = saturation_at(setup, position)
    half = 0.5 * CONST.hbar * setup.beam.detuning
    return half * (np.log1p(s) if mode == "exact_log" else s)


def trap_depth(setup: TrapSetup) -> float:
    """U0 = |V_eff(focus)| = |hbar delta / 2| s0 of the low-saturation
    potential, J; every ratio to U0 uses it.  Exactly linear in power."""
    s0 = setup.saturation_at_focus
    return abs(0.5 * CONST.hbar * setup.beam.detuning * s0)


def optical_curvatures(setup: TrapSetup) -> tuple:
    """Optical omega^2 per beam-frame axis at the focus, (rad/s)^2, for the
    signed depth U = -V_eff(focus): 4 U / (M w0^2) transversally and
    2 U / (M zR^2) axially (U = U0 for a red beam, -U0 for a blue one)."""
    depth = np.copysign(trap_depth(setup), -setup.beam.detuning)
    mass = setup.ion.total_mass
    radial = 4.0 * depth / (mass * setup.beam.waist_radius ** 2)
    return radial, radial, 2.0 * depth / (mass * setup.beam.rayleigh_range ** 2)


def secular_curvatures(setup: TrapSetup) -> tuple:
    """omega_opt^2 + omega_s^2 per beam-frame axis, (rad/s)^2: the optical
    curvature plus the static one.  The one confinement rule: an axis is
    anticonfined iff its value is negative."""
    return tuple(w_sq + curv for w_sq, curv in zip(
        optical_curvatures(setup), setup.static_curvatures))


def _dipole_force(setup: TrapSetup, position, exact_log: bool):
    """(s, -grad (hbar delta / 2) ln(1 + s)) at ``position`` from one TEM00
    profile; without ``exact_log``, -grad (hbar delta / 2) s."""
    inten, grad = intensity_gradient_at(setup.beam, position, with_intensity=True)
    scale = setup.saturation_per_intensity
    s = scale * inten
    half = 0.5 * CONST.hbar * setup.beam.detuning
    soften = np.asarray(1.0 + s if exact_log else 1.0)
    return s, (-half / soften)[..., np.newaxis] * (scale * grad)


def dipole_force_at(setup: TrapSetup, position, mode: str = "exact_log"):
    """Conservative dipole force -grad V, shape (..., 3), N."""
    check_force_model(mode)
    return _dipole_force(setup, position, mode == "exact_log")[1]


@dataclass(frozen=True)
class MeanForce:
    """Optical mean force decomposed into its two physical parts."""

    dipolar: np.ndarray             # N, conservative, -grad V of the mode
    radiation_pressure: np.ndarray  # N, dissipative, along the beam axis

    @property
    def total(self) -> np.ndarray:
        return self.dipolar + self.radiation_pressure


def mean_force_at(setup: TrapSetup, position,
                  mode: str = "exact_log") -> MeanForce:
    """Mean optical force after averaging over the optical period; the
    dipolar part has :func:`dipole_force_at`'s form in ``mode``."""
    check_force_model(mode)
    s, dip = _dipole_force(setup, position, mode == "exact_log")
    gamma = setup.linewidth
    k = setup.beam.wavenumber
    mag = 0.5 * CONST.hbar * gamma * (s / (1.0 + s)) * k
    rp = np.multiply.outer(mag, (0.0, 0.0, 1.0))    # along the beam, +z
    return MeanForce(dipolar=dip, radiation_pressure=rp)


def secular_rhs(setup: TrapSetup, mode: str, radiation: bool):
    """dy/dt = (V, (F(R) - M omega_s^2 R) / M) at one y = (R, V), F being
    :func:`mean_force_at`'s total (``radiation``) or :func:`dipole_force_at`,
    in their operation order on Python floats, with libm's ``math.exp``
    (numpy's exp has per-SIMD-level bits) as the one difference."""
    check_force_model(mode)
    beam = setup.beam
    z_r, z_r_sq = float(beam.rayleigh_range), float(beam.rayleigh_range ** 2)
    w0_sq, two_p = float(beam.waist_radius ** 2), float(2.0 * beam.power)
    if not w0_sq * w0_sq > 0.0:      # the gradient divides by w(z)^4
        raise UnreachableScale(f"w0^4 underflows (w0 = {beam.waist_radius:.3g} m)")
    s_per_i, k = float(setup.saturation_per_intensity), float(beam.wavenumber)
    half = float(0.5 * CONST.hbar * beam.detuning)
    half_gamma = float(0.5 * CONST.hbar * setup.linewidth)
    mass, exact_log = float(setup.ion.total_mass), mode == "exact_log"
    kx, ky, kz = (float(-mass * c) for c in setup.static_curvatures)

    def rhs(_t, y):
        x, y_, z, vx, vy, vz = y.tolist()
        axial = z / z_r
        r2 = x * x + y_ * y_
        w2 = w0_sq * (1.0 + axial * axial)
        inten = two_p / (math.pi * w2) * math.exp(-2.0 * r2 / w2)
        radial = -4.0 * inten / w2
        dw2 = 2.0 * w0_sq * z / z_r_sq
        grad_z = inten * dw2 * (2.0 * r2 - w2) / (w2 * w2)
        s = s_per_i * inten
        scale = -half / (1.0 + s) if exact_log else -half
        fx = scale * (s_per_i * (radial * x))
        fy = scale * (s_per_i * (radial * y_))
        fz = scale * (s_per_i * grad_z)
        if radiation:    # mean_force_at's total adds mag * (0, 0, 1)
            mag = half_gamma * (s / (1.0 + s)) * k
            fx, fy, fz = fx + mag * 0.0, fy + mag * 0.0, fz + mag * 1.0
        return np.array([vx, vy, vz, (fx + kx * x) / mass,
                         (fy + ky * y_) / mass, (fz + kz * z) / mass])
    return rhs


def _scattering_rate(setup: TrapSetup, s: float) -> float:
    """Scattering rate Gamma_sc = (Gamma/delta) V_eff/hbar = Gamma s / 2,
    1/s, given s.  Valid at low saturation and far detuning: it warns
    when s > 0.1 or |delta| is not large against Gamma/2."""
    gamma = setup.linewidth
    delta = setup.beam.detuning
    if abs(delta) < 5.0 * gamma:
        warnings.warn("scattering-rate formula assumes |delta| >> Gamma/2",
                      SaturationValidityWarning, stacklevel=2)
    if s > 0.1:
        warnings.warn("saturation above 0.1: low-saturation scattering "
                      "formula is inaccurate", SaturationValidityWarning,
                      stacklevel=2)
    return 0.5 * gamma * s


def recoil_energy(setup: TrapSetup) -> float:
    """Single-photon recoil energy (hbar k)^2 / 2M, J."""
    return (CONST.hbar * setup.beam.wavenumber) ** 2 / (2.0 * setup.ion.total_mass)


@dataclass(frozen=True)
class TrapSummary:
    """Depth, harmonic frequencies and the frequency-scale hierarchy."""

    depth: float                        # U0 = |V_eff(focus)|, J
    scattering_rate_at_focus: float     # 1/s
    recoil_energy: float                # J
    optical_trap_frequencies: tuple     # (radial, radial, axial), rad/s
    combined_trap_frequencies: tuple    # optical (+) static, NaN if anticonfined
    anticonfined_axes: tuple            # axis indices with negative curvature
    omega0: float                       # representative secular frequency, rad/s
    motional_temperature: float         # hbar omega0 / kB, K
    hierarchy: tuple                    # ((name, rad/s), ...) sorted ascending


def trap_summary(setup: TrapSetup) -> TrapSummary:
    """Summarise the trap for a red-detuned beam.

    The harmonic frequencies come from the analytic Hessian of the
    low-saturation potential at the focus:

        omega_radial = sqrt(4 U0 / (M w0^2))
        omega_axial  = sqrt(2 U0 / (M zR^2))

    Static curvatures add in quadrature per axis, signed; an axis whose
    combined curvature (:func:`secular_curvatures`) is negative is
    reported in ``anticonfined_axes`` (with NaN frequency) rather than
    raising.  The focus scattering rate is Gamma s0 / 2, with the
    formula's validity warnings.
    """
    if setup.beam.detuning >= 0:
        raise BlueDetunedUnsupported(
            "trap summary requires red detuning (delta < 0); got "
            f"delta = {setup.beam.detuning:g} rad/s")
    depth = trap_depth(setup)
    optical = tuple(float(np.sqrt(w_sq)) for w_sq in optical_curvatures(setup))
    total_sq = secular_curvatures(setup)
    anticonfined = tuple(i for i, w_sq in enumerate(total_sq) if w_sq < 0)
    combined = tuple(float("nan") if w_sq < 0 else float(np.sqrt(w_sq))
                     for w_sq in total_sq)
    omega0 = max((w for w in combined if np.isfinite(w)), default=float("nan"))

    e_rec = recoil_energy(setup)
    scales = [
        ("omega0", omega0),
        ("recoil", e_rec / CONST.hbar),
        ("linewidth", setup.linewidth),
        ("depth_rate", depth / CONST.hbar),
        ("rabi", setup.rabi_frequency),
        ("abs_detuning", abs(setup.beam.detuning)),
        ("omega_laser", setup.beam.omega_laser),
        ("omega_transition", setup.omega_eg),
    ]
    hierarchy = tuple(sorted(scales, key=lambda item: item[1]))

    return TrapSummary(
        depth=float(depth),
        scattering_rate_at_focus=float(
            _scattering_rate(setup, setup.saturation_at_focus)),
        recoil_energy=float(e_rec),
        optical_trap_frequencies=optical,
        combined_trap_frequencies=combined,
        anticonfined_axes=anticonfined,
        omega0=float(omega0),
        motional_temperature=float(CONST.hbar * omega0 / CONST.kB),
        hierarchy=hierarchy,
    )


def power_for_depth(setup: TrapSetup, depth: float) -> float:
    """Beam power giving the requested low-saturation trap depth, W.

    The low-saturation depth is exactly linear in power, so the inversion
    is the rescaling depth * P / U0 of ``setup``'s own power and depth.
    ``ValueError`` if that U0 is not positive and finite (e.g. the dipole
    moment squared underflows).
    """
    own_depth = trap_depth(setup)
    if not 0.0 < own_depth < np.inf:
        raise ValueError(f"cannot rescale a trap depth of {own_depth:g} J; "
                         "it must be positive and finite")
    return depth * setup.beam.power / own_depth
