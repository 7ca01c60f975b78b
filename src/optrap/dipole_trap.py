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

s is proportional to the intensity, so grad s = (s0 / I0) grad I with the
focus values s0 and I0.  That scale depends on the setup only; the setup
keeps it (:attr:`~optrap.model.TrapSetup.saturation_per_intensity`,
computed on first use), and every force evaluation on it reuses it.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import CONST
from .errors import BlueDetunedUnsupported, SaturationValidityWarning
from .model import (FOCUS, TrapSetup, intensity_gradient_at,
                    rabi_frequency_at, saturation_at)

FORCE_MODELS = ("exact_log", "low_sat")  # the modes of dipole_force_at


def effective_potential_at(setup: TrapSetup, position, mode: str = "low_sat"):
    """AC-Stark potential for the centre of mass, J.

    mode="low_sat" : V = (hbar delta / 2) s(R)          (weak drive)
    mode="exact_log": V = (hbar delta / 2) ln(1 + s(R))  (two-level exact)

    The two differ by a relative factor s/2 + O(s^2).  Red detuning
    (delta < 0) makes the potential attractive towards high intensity.
    """
    s = saturation_at(setup, position)
    half = 0.5 * CONST.hbar * setup.beam.detuning
    if mode == "low_sat":
        return half * s
    if mode == "exact_log":
        return half * np.log1p(s)
    raise ValueError(f"unknown potential mode: {mode!r}")


def trap_depth(setup: TrapSetup) -> float:
    """U0 = |V_eff(focus)| of the low-saturation potential, J; every ratio
    to U0 uses it.  Exactly linear in the beam power."""
    return abs(effective_potential_at(setup, FOCUS, mode="low_sat"))


def optical_curvatures(setup: TrapSetup, depth: float) -> tuple:
    """Optical omega^2 per beam-frame axis at the focus, (rad/s)^2, for the
    signed depth U = -V_eff(focus): 4 U / (M w0^2) transversally and
    2 U / (M zR^2) axially (U0 for a red beam; a blue one's U < 0)."""
    mass = setup.ion.total_mass
    radial = 4.0 * depth / (mass * setup.beam.waist_radius ** 2)
    return radial, radial, 2.0 * depth / (mass * setup.beam.rayleigh_range ** 2)


def secular_curvatures(setup: TrapSetup, depth: float) -> tuple:
    """omega_opt^2 + omega_s^2 per beam-frame axis, (rad/s)^2: the optical
    curvature of the signed depth plus the static one.  The one
    confinement rule: an axis is anticonfined iff its value is negative."""
    return tuple(w_sq + curv for w_sq, curv in zip(
        optical_curvatures(setup, depth), setup.static_curvatures))


def _dipole_force(setup: TrapSetup, position, s):
    """-grad (hbar delta / 2) ln(1 + s) at ``position``, given s there;
    s = 0 drops the 1/(1 + s), giving -grad (hbar delta / 2) s."""
    grad_s = setup.saturation_per_intensity * intensity_gradient_at(
        setup.beam, position)
    half = 0.5 * CONST.hbar * setup.beam.detuning
    return -half / np.expand_dims(1.0 + s, -1) * grad_s


def dipole_force_at(setup: TrapSetup, position, mode: str = "exact_log"):
    """Conservative dipole force -grad V, shape (..., 3), N."""
    if mode not in FORCE_MODELS:
        raise ValueError(f"unknown potential mode: {mode!r}")
    s = saturation_at(setup, position) if mode == "exact_log" else 0.0
    return _dipole_force(setup, position, s)


@dataclass(frozen=True)
class MeanForce:
    """Optical mean force decomposed into its two physical parts."""

    dipolar: np.ndarray             # N, conservative, -grad (hbar d/2) ln(1+s)
    radiation_pressure: np.ndarray  # N, dissipative, along the beam axis

    @property
    def total(self) -> np.ndarray:
        return self.dipolar + self.radiation_pressure


def mean_force_at(setup: TrapSetup, position) -> MeanForce:
    """Mean optical force after averaging over the optical period."""
    s = saturation_at(setup, position)
    dip = _dipole_force(setup, position, s)
    gamma = setup.transition.linewidth
    k = setup.beam.wavenumber
    mag = 0.5 * CONST.hbar * gamma * (s / (1.0 + s)) * k
    rp = np.multiply.outer(mag, (0.0, 0.0, 1.0))    # along the beam, +z
    return MeanForce(dipolar=dip, radiation_pressure=rp)


def scattering_rate_at(setup: TrapSetup, position):
    """Photon scattering rate Gamma_sc = (Gamma/delta) V_eff/hbar, 1/s.

    With the low-saturation potential this is identically Gamma s / 2.
    Valid at low saturation and far detuning; a warning is emitted when
    s > 0.1 or |delta| is not large against Gamma/2.
    """
    return _scattering_rate(setup, saturation_at(setup, position))


def _scattering_rate(setup: TrapSetup, s):
    """Gamma s / 2 given the saturation s, with the validity warnings."""
    gamma = setup.transition.linewidth
    delta = setup.beam.detuning
    if abs(delta) < 5.0 * gamma:
        warnings.warn("scattering-rate formula assumes |delta| >> Gamma/2",
                      SaturationValidityWarning, stacklevel=2)
    if (np.asarray(s) > 0.1).any():
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
    saturation_at_focus: float
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
    raising.  The focus scattering rate is :func:`scattering_rate_at`'s
    formula, with its validity warnings.
    """
    if setup.beam.detuning >= 0:
        raise BlueDetunedUnsupported(
            "trap summary requires red detuning (delta < 0); got "
            f"delta = {setup.beam.detuning:g} rad/s")
    depth = trap_depth(setup)
    optical = tuple(float(np.sqrt(w_sq))
                    for w_sq in optical_curvatures(setup, depth))
    total_sq = secular_curvatures(setup, depth)
    anticonfined = tuple(i for i, w_sq in enumerate(total_sq) if w_sq < 0)
    combined = tuple(float("nan") if w_sq < 0 else float(np.sqrt(w_sq))
                     for w_sq in total_sq)
    omega0 = max((w for w in combined if np.isfinite(w)), default=float("nan"))

    e_rec = recoil_energy(setup)
    s0 = saturation_at(setup, FOCUS)
    scales = [
        ("omega0", omega0),
        ("recoil", e_rec / CONST.hbar),
        ("linewidth", setup.transition.linewidth),
        ("depth_rate", depth / CONST.hbar),
        ("rabi", rabi_frequency_at(setup, FOCUS)),
        ("abs_detuning", abs(setup.beam.detuning)),
        ("omega_laser", setup.beam.omega_laser),
        ("omega_transition", setup.transition.omega_eg),
    ]
    hierarchy = tuple(sorted(scales, key=lambda item: item[1]))

    return TrapSummary(
        depth=float(depth),
        saturation_at_focus=float(s0),
        scattering_rate_at_focus=float(_scattering_rate(setup, s0)),
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
