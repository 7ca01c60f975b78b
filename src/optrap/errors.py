"""Exception and warning types shared across the package."""


class TrapError(Exception):
    """Base class for all package errors."""


class ConfigError(TrapError):
    """Invalid configuration input (unknown key, bad value, missing field)."""


class PhysicsError(TrapError):
    """A physically meaningful failure, as opposed to bad input syntax."""


class BlueDetunedUnsupported(PhysicsError):
    """Trap-level analysis requires red detuning (delta < 0)."""


class AnticonfinedAxis(PhysicsError):
    """Combined static + optical curvature on an axis is not confining."""


class EscapedTrap(PhysicsError):
    """Trajectory left the trapping region (beyond 100 waists)."""


class StepFailure(PhysicsError):
    """The adaptive integrator could not meet its tolerances."""


class UnreachableScale(PhysicsError):
    """A numerically intractable scale: a drive/secular ratio above 1e6, a
    subnormal secular frequency squared, or a waist whose w0^4 underflows."""


class Resonance(PhysicsError):
    """Driven oscillator too close to resonance for a steady-state solution."""


class NoRoot(PhysicsError):
    """No force equilibrium found inside the search bracket."""


class TrapWarning(UserWarning):
    """Base class for package warnings."""


class StiffnessWarning(TrapWarning):
    """Mathieu parameters too small for numerical Floquet analysis."""


class SaturationValidityWarning(TrapWarning):
    """A low-saturation formula was evaluated outside its validity range."""


class FrequencyRangeWarning(TrapWarning):
    """Motional frequency outside the recommended evaluation range."""


class InitialConditionWarning(TrapWarning):
    """Questionable initial condition (e.g. starting far from the focus)."""
