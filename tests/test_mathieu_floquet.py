"""Mathieu mapping, monodromy stability, micromotion extraction.

Independent oracles used here:

* scipy.special.mathieu_a / mathieu_b characteristic curves: for the
  canonical form x'' + (a - 2q cos 2tau) x = 0, the region between
  a0(q) and b1(q) is the first stable band, and b1(q) = 0 crosses at
  q ~ 0.9080 -- the a = 0 boundary.
* an independent high-resolution monodromy via scipy.solve_ivp (DOP853).
* brute-force trajectory integration + least-squares tone fitting for
  the micromotion amplitude ratio.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sps
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from optrap import (mathieu_monodromy, micromotion_ratio_optical,
                    monodromy_stability, optical_mathieu_params,
                    stability_scan, trap_summary)
from optrap.errors import AnticonfinedAxis, PhysicsError, StiffnessWarning
from optrap.integrators import rk8_oscillator
from optrap.mathieu_floquet import (HILL_ORDER, STIFFNESS_THRESHOLD,
                                    floquet_eigenfunction_spectrum, grid_count)

from conftest import make_reference_setup


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def scipy_monodromy(a, q):
    """Fundamental matrix over one period via an unrelated integrator."""
    def rhs(t, y):
        coef = a - 2 * q * np.cos(2 * t)
        return [y[2], y[3], -coef * y[0], -coef * y[1]]
    sol = solve_ivp(rhs, (0.0, np.pi), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                    rtol=1e-12, atol=1e-14)
    y = sol.y[:, -1]
    return np.array([[y[0], y[1]], [y[2], y[3]]])


def first_band_stable(a, q):
    """Characteristic-curve oracle, valid near the first stable band."""
    qq = abs(q)
    return sps.mathieu_a(0, qq) < a < sps.mathieu_b(1, qq)


def brute_micromotion_ratio(a, q, periods=800):
    """Trajectory + least-squares tone fit, independent of the Floquet path."""
    mono = scipy_monodromy(a, q)
    beta = np.arccos(np.clip(np.trace(mono) / 2, -1, 1)) / np.pi
    spp = 64
    n = periods * spp
    tau = np.linspace(0.0, periods * np.pi, n)

    def rhs(t, y):
        return [y[1], -(a - 2 * q * np.cos(2 * t)) * y[0]]
    sol = solve_ivp(rhs, (tau[0], tau[-1]), [1.0, 0.0], method="DOP853",
                    rtol=1e-11, atol=1e-12, t_eval=tau)
    x = sol.y[0]
    # known tone frequencies: secular beta (tau units of the 2tau drive
    # convention -> angular frequency beta) and sidebands 2 -+ beta
    freqs = [beta, 2 - beta, 2 + beta]
    basis = []
    for f in freqs:
        basis.append(np.cos(f * tau))
        basis.append(np.sin(f * tau))
    coef, *_ = np.linalg.lstsq(np.array(basis).T, x, rcond=None)
    amp = [np.hypot(coef[2 * i], coef[2 * i + 1]) for i in range(3)]
    return (amp[1] + amp[2]) / amp[0]


# ---------------------------------------------------------------------------
# optical mapping
# ---------------------------------------------------------------------------

def test_optical_mapping_reference(mg_setup):
    params = optical_mathieu_params(mg_setup, axis=0)
    summary = trap_summary(mg_setup)
    omega_l = mg_setup.beam.omega_laser
    w_r = summary.optical_trap_frequencies[0]
    assert params.a == pytest.approx((w_r / omega_l) ** 2, rel=1e-12)
    assert params.a == pytest.approx(3.124e-20, rel=1e-3)
    assert abs(params.q) == pytest.approx(1.562e-20, rel=1e-3)
    # published magnitude: (omega0/omega_L)^2 ~ 1e-20
    assert 1e-21 < params.a < 1e-19
    assert params.drive_angular_frequency == 2 * omega_l
    # purely optical trap: a = -2q exactly
    assert params.a == pytest.approx(-2 * params.q, rel=1e-12)


def test_optical_mapping_zero_trap():
    dark_limit = make_reference_setup(power=1e-30)
    params = optical_mathieu_params(dark_limit, axis=0)
    assert params.a < 1e-40
    assert abs(params.q) < 1e-40


def test_static_field_enters_a_only(mg_setup):
    curv = (2 * np.pi * 45e3) ** 2
    setup = make_reference_setup(static=(curv, 0.0, 0.0))
    plain = optical_mathieu_params(mg_setup, axis=0)
    biased = optical_mathieu_params(setup, axis=0)
    omega_l = setup.beam.omega_laser
    assert biased.q == plain.q
    assert biased.a - plain.a == pytest.approx(curv / omega_l ** 2, rel=1e-9)


@pytest.mark.filterwarnings("ignore::optrap.errors.SaturationValidityWarning")
def test_confinement_rule_is_the_summary_rule():
    # a beam 1e10 times the reference power (|q| ~ 2e-10) and a static
    # field just past cancelling it on x: omega_opt^2 + omega_s^2 < 0 while
    # the Mathieu test a + q^2/2 > 0 alone would call the axis confining
    power = 1e10 * make_reference_setup().beam.power
    w_sq = trap_summary(make_reference_setup(power=power)
                        ).optical_trap_frequencies[0] ** 2
    setup = make_reference_setup(power=power,
                                 static=(-w_sq * (1.0 + 1e-11), 0.0, 0.0))
    omega_l = setup.beam.omega_laser
    a = (w_sq + setup.static_curvatures[0]) / omega_l ** 2
    q = -w_sq / (2.0 * omega_l ** 2)
    assert a < 0.0 < a + 0.5 * q * q
    anticonfined = trap_summary(setup).anticonfined_axes
    assert anticonfined == (0,)
    for axis in range(3):
        if axis in anticonfined:
            with pytest.raises(AnticonfinedAxis):
                optical_mathieu_params(setup, axis)
        else:
            assert optical_mathieu_params(setup, axis).a > 0


@pytest.mark.filterwarnings("ignore::optrap.errors.SaturationValidityWarning")
def test_confinement_rule_over_seeded_setups():
    # oracle: the axis's optical omega^2 from U0 and the beam geometry,
    # plus a static curvature drawn as r times it; anticonfined iff r < -1
    from optrap.constants import CONST
    rng = np.random.default_rng(13)
    reference = make_reference_setup()
    for _ in range(40):
        power = reference.beam.power * 10 ** rng.uniform(-3, 3)
        plain = make_reference_setup(power=power)
        u0 = CONST.kB * 50e-3 * power / reference.beam.power
        mass = plain.ion.total_mass
        optical = (4 * u0 / (mass * plain.beam.waist_radius ** 2),) * 2 + (
            2 * u0 / (mass * plain.beam.rayleigh_range ** 2),)
        ratios = rng.choice([-1.0, 1.0], 3) * 10 ** rng.uniform(-1, 1, 3)
        setup = make_reference_setup(
            power=power, static=tuple(r * w for r, w in zip(ratios, optical)))
        expected = tuple(i for i in range(3) if ratios[i] < -1.0)
        assert trap_summary(setup).anticonfined_axes == expected
        for axis in range(3):
            if axis in expected:
                with pytest.raises(AnticonfinedAxis):
                    optical_mathieu_params(setup, axis)
            else:
                optical_mathieu_params(setup, axis)


def test_anticonfined_axis_raises():
    axial = trap_summary(make_reference_setup()).optical_trap_frequencies[2]
    setup = make_reference_setup(static=(0.0, 0.0, -(2 * axial) ** 2))
    with pytest.raises(AnticonfinedAxis):
        optical_mathieu_params(setup, axis=2)
    # transverse axes unaffected
    assert optical_mathieu_params(setup, axis=0).a > 0


# ---------------------------------------------------------------------------
# monodromy properties
# ---------------------------------------------------------------------------

def test_determinant_and_reciprocal_multipliers():
    rng = np.random.default_rng(42)
    a = rng.uniform(-2, 2, 300)
    q = rng.uniform(-2, 2, 300)
    mono = mathieu_monodromy(a, q)
    dets = mono[:, 0, 0] * mono[:, 1, 1] - mono[:, 0, 1] * mono[:, 1, 0]
    assert np.max(np.abs(dets - 1.0)) < 1e-9
    # multipliers are a reciprocal pair (their product is det = 1)
    for i in range(0, 300, 50):
        evals = np.linalg.eigvals(mono[i])
        assert abs(evals[0] * evals[1] - 1.0) < 1e-9


def test_monodromy_against_independent_integrator():
    rng = np.random.default_rng(8)
    for _ in range(12):
        a = rng.uniform(-2, 2)
        q = rng.uniform(-2, 2)
        ours = mathieu_monodromy(a, q)
        ref = scipy_monodromy(a, q)
        assert np.max(np.abs(ours - ref)) < 1e-8
        assert monodromy_stability((a, q)).stable == (abs(np.trace(ref)) < 2)


def test_default_steps_hold_across_a_wide_domain():
    # the default count follows the fastest local rate, so the accuracy
    # holds far outside [-2, 2]^2; "relative" is against max(|trace|, 1),
    # since inside the band the trace crosses 0, and det M - 1 against
    # M11^2, the size of the two products it is the difference of (up to
    # ~1e272 at a = -1e4)
    rng = np.random.default_rng(29)
    corners = [(a, q) for a in (-1e4, 1e4) for q in (-1e3, 1e3)]
    drawn = [(rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 4),
              rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 3))
             for _ in range(16)]
    for a, q in corners + drawn:
        ours = mathieu_monodromy(a, q)
        ref = np.trace(scipy_monodromy(a, q))
        assert abs(np.trace(ours) - ref) <= 1e-10 * max(abs(ref), 1.0)
        assert ours[0, 0] == ours[1, 1]
        det = ours[0, 0] * ours[1, 1] - ours[0, 1] * ours[1, 0]
        assert abs(det - 1.0) <= 1e-12 * max(ours[0, 0] ** 2, 1.0)


@pytest.mark.parametrize("nu", [1 - 10.0 ** -k for k in range(3, 8)]
                         + [10.0 ** -k for k in range(3, 7)])
def test_exponent_at_the_band_edges_of_the_q_axis(nu):
    # q = 0, a = nu^2: x'' + nu^2 x = 0 has the exact exponent nu; near
    # nu = 0 and 1 the trace is 2 cos(nu pi) ~ +-2, where arccos of it
    # loses about half the digits and arg(d + sqrt(bc)) loses none
    res = monodromy_stability((nu * nu, 0.0))
    assert res.stable
    assert abs(res.characteristic_exponent - nu) <= 1e-13


def test_multipliers_match_the_eigenvalue_oracle():
    rng = np.random.default_rng(31)
    kinds = set()
    for _ in range(60):
        a = rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 4)
        q = rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 3)
        res = monodromy_stability((a, q))
        kinds.add(res.stable)
        ours = np.sort_complex(np.array(res.floquet_multipliers))
        oracle = np.sort_complex(np.linalg.eigvals(res.monodromy_matrix))
        scale = np.max(np.abs(res.monodromy_matrix))
        assert np.max(np.abs(ours - oracle)) <= 1e-15 * scale
    assert kinds == {True, False}


def test_stability_prints_nothing_on_stderr(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "optrap.cli", "stability",
         str(repo / "demos" / "mg24.json"), "--a=0:1:0.25", "--q=0:0.5:0.25",
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_harmonic_case_quarter_rotation():
    # q = 0, a = 0.25: pure harmonic motion, multipliers e^{+-i pi/2}
    res = monodromy_stability((0.25, 0.0))
    assert res.stable
    assert res.characteristic_exponent == pytest.approx(0.5, abs=1e-10)
    mults = sorted(res.floquet_multipliers, key=lambda z: z.imag)
    assert mults[1] == pytest.approx(1j, abs=1e-10)
    assert abs(np.trace(res.monodromy_matrix)) < 1e-10


def test_stability_boundary_on_q_axis():
    # characteristic-curve oracle: b1(q) = 0 at q ~ 0.90805
    q_oracle = brentq(lambda q: sps.mathieu_b(1, q), 0.5, 1.5, xtol=1e-10)
    assert q_oracle == pytest.approx(0.908046, abs=1e-5)
    assert monodromy_stability((0.0, 0.90)).stable
    assert not monodromy_stability((0.0, 0.92)).stable

    def trace_margin(q):
        mono = mathieu_monodromy(0.0, q)
        return abs(mono[0, 0] + mono[1, 1]) - 2.0
    q_ours = brentq(trace_margin, 0.5, 1.5, xtol=1e-10)
    assert q_ours == pytest.approx(q_oracle, abs=1e-8)


def test_q_sign_parity():
    rng = np.random.default_rng(17)
    for _ in range(8):
        a = rng.uniform(-1, 2)
        q = rng.uniform(0, 2)
        plus = mathieu_monodromy(a, q)
        minus = mathieu_monodromy(a, -q)
        assert np.trace(plus) == pytest.approx(np.trace(minus), abs=1e-9)


def test_stability_invariant_under_step_doubling():
    rng = np.random.default_rng(23)
    a = rng.uniform(-2, 2, 40)
    q = rng.uniform(-2, 2, 40)
    coarse = mathieu_monodromy(a, q, steps=4096)
    fine = mathieu_monodromy(a, q, steps=8192)
    tr_c = coarse[:, 0, 0] + coarse[:, 1, 1]
    tr_f = fine[:, 0, 0] + fine[:, 1, 1]
    assert np.array_equal(np.abs(tr_c) < 2, np.abs(tr_f) < 2)


# ---------------------------------------------------------------------------
# micromotion extraction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a,q", [(0.02, 0.01), (0.01, 0.005), (0.04, 0.02),
                                 (0.02, 0.05), (0.02, -0.05)])
def test_small_q_law(a, q):
    res = monodromy_stability((a, q))
    assert res.stable
    assert not res.from_analytic_law
    assert res.micromotion_ratio == pytest.approx(abs(q) / 2, rel=0.05)


def test_micromotion_against_brute_force():
    # trajectory + least-squares oracle at two representative points
    for a, q in ((0.02, 0.01), (0.05, -0.025)):
        extracted = monodromy_stability((a, q)).micromotion_ratio
        brute = brute_micromotion_ratio(a, q)
        assert extracted == pytest.approx(brute, rel=0.02)


def test_small_q_law_region_sweep():
    # the |q|/2 law carries a 1/(1 - a) correction; within 5% requires
    # a <~ 0.04, so the sampled region is a in [q, min(10q, 0.04)]
    rng = np.random.default_rng(5)
    for _ in range(12):
        q = rng.uniform(0.002, 0.04)
        a = rng.uniform(q, min(10 * q, 0.04))
        res = monodromy_stability((a, q))
        assert res.micromotion_ratio == pytest.approx(q / 2, rel=0.05)


def test_micromotion_scaled_optical_line():
    # omega_L/omega0 = 1e3 -> a = 1e-6, q = -5e-7: the analytic law
    # (omega0/omega_L)^2/4 = 2.5e-7 matches full Floquet numerics
    res = monodromy_stability((1e-6, -5e-7))
    assert not res.from_analytic_law
    assert res.micromotion_ratio == pytest.approx(2.5e-7, rel=0.05)


def test_micromotion_kinetic_energy_scaling():
    # along the optical line a = 2|q| the time-averaged micromotion
    # kinetic energy relative to the secular one scales as O(q): the
    # eigenfunction-velocity weights give |q|/4 at leading order
    qs = np.array([0.0025, 0.005, 0.01, 0.02])
    ratios = []
    for q in qs:
        nu, coeffs = floquet_eigenfunction_spectrum(2 * q, -q)
        ke_sec = (abs(coeffs[0]) * nu) ** 2
        ke_mm = (abs(coeffs[1]) * (nu + 2)) ** 2 \
            + (abs(coeffs[-1]) * (nu - 2)) ** 2
        ratios.append(ke_mm / ke_sec)
    ratios = np.array(ratios)
    slope = np.polyfit(np.log(qs), np.log(ratios), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)
    assert ratios[0] / qs[0] == pytest.approx(0.25, rel=0.05)


def test_hill_spectrum_matches_two_sideband_law():
    # near the origin Hill's recursion truncated at c_{+-1} gives
    # (|q|/2) / (1 - a - q^2/2); the neglected terms are O(q^2) smaller
    a, q = 1e-6, -5e-7
    _, coeffs = floquet_eigenfunction_spectrum(a, q)
    ratio = (abs(coeffs[1]) + abs(coeffs[-1])) / abs(coeffs[0])
    assert ratio == pytest.approx(0.5 * abs(q) / (1 - a - q * q / 2),
                                  rel=1e-10)


@pytest.mark.parametrize("a,q", [(0.04, 0.02), (2.0, 1.0), (7.5, -2.5),
                                 (10.0, 3.0)])
def test_hill_truncation_is_converged(a, q):
    # the outermost kept harmonics c_m and c_-m of the window |n| <= m are
    # negligible; in DFT order they sit at indices m and m + 1
    _, coeffs = floquet_eigenfunction_spectrum(a, q)
    m = len(coeffs) // 2
    assert m >= HILL_ORDER
    ends = np.abs(coeffs[[m, m + 1]])
    assert np.max(ends) < 1e-15 * np.max(np.abs(coeffs))


def test_optical_micromotion_ratio(mg_setup):
    ratio = micromotion_ratio_optical(mg_setup, axis=0)
    params = optical_mathieu_params(mg_setup, axis=0)
    assert ratio == abs(params.q) / 2
    assert ratio == pytest.approx(7.811e-21, rel=1e-3)
    assert 1e-21 < ratio < 1e-19  # published order 1e-20
    tiny = micromotion_ratio_optical(make_reference_setup(power=1e-30), axis=0)
    assert tiny < 1e-40


def test_stiffness_substitution_flagged(mg_setup):
    params = optical_mathieu_params(mg_setup, axis=0)
    with pytest.warns(StiffnessWarning):
        res = monodromy_stability(params)
    assert res.from_analytic_law
    assert res.stable
    assert res.micromotion_ratio == pytest.approx(abs(params.q) / 2, rel=0)
    assert res.characteristic_exponent == pytest.approx(
        np.sqrt(params.a + params.q ** 2 / 2), rel=1e-12)


def test_stiffness_anticonfined_unstable():
    with pytest.warns(StiffnessWarning):
        res = monodromy_stability((-1e-20, 1e-21))
    assert not res.stable
    assert np.isnan(res.micromotion_ratio)


@pytest.mark.parametrize("a,q", [(1e-20, 1e-21), (-1e-20, 1e-21),
                                 (0.0, 0.0)])
def test_harmonic_limit_matrix(a, q):
    # x'' + beta^2 x = 0 over one period: rotation, boost or free drift
    with pytest.warns(StiffnessWarning):
        res = monodromy_stability((a, q))
    beta_sq = a + q * q / 2
    beta = np.sqrt(abs(beta_sq))
    if beta_sq > 0:
        c, s = np.cos(beta * np.pi), np.sin(beta * np.pi)
        expected = [[c, s / beta], [-beta * s, c]]
        mults = (complex(c, s), complex(c, -s))
    elif beta_sq < 0:
        c, s = np.cosh(beta * np.pi), np.sinh(beta * np.pi)
        expected = [[c, s / beta], [beta * s, c]]
        mults = (np.exp(beta * np.pi), np.exp(-beta * np.pi))
    else:
        expected, mults = [[1.0, np.pi], [0.0, 1.0]], (1.0, 1.0)
    np.testing.assert_allclose(res.monodromy_matrix, expected, rtol=1e-15)
    np.testing.assert_allclose(res.floquet_multipliers, mults, rtol=1e-15)
    assert res.stable == (beta_sq > 0)
    assert res.characteristic_exponent == beta


def test_analytic_domain_tie_takes_the_numerical_path():
    # the |q|/2 domain is max(|a|, |q|) < 1e-14, strictly: a point at the
    # threshold on either parameter is integrated, one ulp below is not
    below = np.nextafter(STIFFNESS_THRESHOLD, 0.0)
    for tie, inside in (((STIFFNESS_THRESHOLD, 0.0), (below, 0.0)),
                        ((0.0, STIFFNESS_THRESHOLD), (0.0, below))):
        with warnings.catch_warnings():
            warnings.simplefilter("error", StiffnessWarning)
            assert not monodromy_stability(tie).from_analytic_law
        with pytest.warns(StiffnessWarning):
            assert monodromy_stability(inside).from_analytic_law
    # a dark beam whose static curvature puts a at the threshold is refused
    # the |q|/2 law; one ulp below gets it (|q| = 0)
    omega_l = make_reference_setup().beam.omega_laser

    def setup_at(a):
        return make_reference_setup(power=0.0,
                                    static=(a * omega_l ** 2, 0.0, 0.0))
    assert optical_mathieu_params(setup_at(STIFFNESS_THRESHOLD), 0).a \
        == STIFFNESS_THRESHOLD
    with pytest.raises(PhysicsError, match="small-parameter regime"):
        micromotion_ratio_optical(setup_at(STIFFNESS_THRESHOLD), 0)
    assert optical_mathieu_params(setup_at(below), 0).a == below
    assert micromotion_ratio_optical(setup_at(below), 0) == 0.0


# ---------------------------------------------------------------------------
# stability scan
# ---------------------------------------------------------------------------

def test_grid_count_slack_rule():
    # k <= (max - min)/step + 1e-9: a ratio 1e-10 short of 3 keeps k = 3,
    # one 2e-9 short does not
    assert grid_count(0.0, 0.29999999999, 0.1) == 4
    assert grid_count(0.0, 0.2999999998, 0.1) == 3
    # so the last value may pass max by up to 1e-9 steps; the CSV prints
    # it at 12 significant digits
    grid = stability_scan((0.0, 0.29999999999), (0.0, 0.0), 0.1)
    assert grid.a_values[-1] == 0.30000000000000004 > 0.29999999999
    assert grid.to_csv_text().splitlines()[-1].startswith("0.3,0,")


def test_scan_grid_and_boundary_cell():
    grid = stability_scan((0.0, 0.0), (0.85, 0.95), (1.0, 0.01))
    stable_q = grid.q_values[grid.stable[0]]
    assert stable_q.max() == pytest.approx(0.90, abs=1e-9)
    unstable_q = grid.q_values[~grid.stable[0]]
    assert unstable_q.min() == pytest.approx(0.91, abs=1e-9)


def test_scan_four_points_against_characteristic_curves():
    # characteristic-curve oracle for the coarse 2x2 grid over [0, 0.5]^2:
    # (0, 0) is the marginal free particle (|trace| = 2, not stable),
    # (0, 0.5) and (0.5, 0) are stable, (0.5, 0.5) sits inside the first
    # instability tongue since b1(0.5) < 0.5
    assert sps.mathieu_b(1, 0.5) < 0.5
    grid = stability_scan((0.0, 0.5), (0.0, 0.5), 0.5)
    flags = {(a, q): stab for a, q, stab, _ in grid.rows()}
    assert flags[(0.0, 0.5)] is True
    assert flags[(0.5, 0.0)] is True
    assert flags[(0.5, 0.5)] is False
    assert flags[(0.0, 0.0)] is False  # marginal: trace exactly 2


def test_scan_q_parity_symmetry():
    grid_pos = stability_scan((0.0, 0.4), (0.1, 0.5), (0.2, 0.2))
    grid_neg = stability_scan((0.0, 0.4), (-0.5, -0.1), (0.2, 0.2))
    assert np.array_equal(grid_pos.stable, grid_neg.stable[:, ::-1])


def test_scan_csv_deterministic():
    one = stability_scan((0.0, 0.2), (0.0, 0.2), 0.1).to_csv_text()
    two = stability_scan((0.0, 0.2), (0.0, 0.2), 0.1).to_csv_text()
    assert one == two
    header, *rows = one.splitlines()
    assert header == "a,q,stable,exponent"
    assert len(rows) == 9


# scan bytes around the a = 0 boundary at the default step count; they
# change only if the monodromy arithmetic (its operation order) changes
PINNED_BOUNDARY_CSV = """\
a,q,stable,exponent
-0.1,0.86,1,0.624590477
-0.1,0.88,1,0.655845985
-0.1,0.9,1,0.68957143
-0.1,0.92,1,0.726726355
-0.1,0.94,1,0.769008551
-0.05,0.86,1,0.704513734
-0.05,0.88,1,0.740263548
-0.05,0.9,1,0.781219687
-0.05,0.92,1,0.831157849
-0.05,0.94,1,0.903136543
0,0.86,1,0.793650997
0,0.88,1,0.842677481
0,0.9,1,0.915911267
0,0.92,0,0.102277598
0,0.94,0,0.166873197
0.05,0.86,1,0.930540673
0.05,0.88,0,0.106778331
0.05,0.9,0,0.165962472
0.05,0.92,0,0.208804993
0.05,0.94,0,0.24406581
0.1,0.86,0,0.165131026
0.1,0.88,0,0.205390475
0.1,0.9,0,0.2388779
0.1,0.92,0,0.268135709
0.1,0.94,0,0.294421781
0.15,0.86,0,0.233769401
0.15,0.88,0,0.261672241
0.15,0.9,0,0.286859338
0.15,0.92,0,0.309985681
0.15,0.94,0,0.331476201
"""


def test_scan_csv_pinned_bytes():
    grid = stability_scan((-0.1, 0.15), (0.86, 0.94), (0.05, 0.02))
    assert grid.to_csv_text() == PINNED_BOUNDARY_CSV


@pytest.mark.parametrize("a,q", [(0.02, 0.01), (0.05, -0.025), (0.0, 0.90),
                                 (0.0, 0.92), (0.5, 0.5), (-0.3, 0.6)])
def test_single_point_matches_batched_monodromy(a, q):
    # the scan path (batched arrays) and the single-point path (floats)
    # are one integrator: their matrices agree to the bit
    res = monodromy_stability((a, q), steps=512)
    assert np.array_equal(res.monodromy_matrix,
                          mathieu_monodromy(a, q, steps=512))
    batch = mathieu_monodromy([a, 0.3], [q, 0.1], steps=512)
    assert np.array_equal(batch[0], res.monodromy_matrix)


@pytest.mark.parametrize("steps", [0, -5])
def test_nonpositive_steps_raise(steps):
    with pytest.raises(ValueError, match="steps"):
        mathieu_monodromy(0.1, 0.1, steps=steps)
    with pytest.raises(ValueError, match="steps"):
        monodromy_stability((0.1, 0.1), steps=steps)
    with pytest.raises(ValueError, match="steps"):
        rk8_oscillator(lambda t, x: -x, 0.0, 0.1, steps, 1.0, 0.0)


@pytest.mark.parametrize("a,q", [(1e308, 0.0), (-1e308, 0.0), (0.0, 1e308)])
def test_overflowing_monodromy_is_a_physics_error(a, q):
    from optrap.errors import PhysicsError
    from optrap.mathieu_floquet import stability_scan
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PhysicsError, match="overflows"):
            stability_scan((a, a), (q, q), 1.0, steps=1)
        with pytest.raises(PhysicsError, match="overflows"):
            monodromy_stability((a, q), steps=1)


def test_micromotion_ratio_about_the_dominant_harmonic():
    # sqrt(a) = 43.5 puts the secular harmonic at n = -22, not n = 0;
    # about it, first order in q gives |q| (1/(4 sqrt a + 4) + 1/(4 sqrt a - 4))
    a, q = 1896.3, -0.0209
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratio = monodromy_stability((a, q)).micromotion_ratio
    root = np.sqrt(a)
    assert ratio == pytest.approx(2.400998e-4, rel=1e-6)
    assert ratio == pytest.approx(
        abs(q) * (1 / (4 * root + 4) + 1 / (4 * root - 4)), rel=1e-6)


@pytest.mark.parametrize("a,q,ratio", [(100.0, 5.0, 0.2547), (3.0, 1.0, 0.397)])
def test_micromotion_ratio_is_not_taken_about_c0(a, q, ratio):
    # here c_0 is not the largest coefficient: about it the ratio would
    # read 20.0 and 3.74
    res = monodromy_stability((a, q))
    assert res.micromotion_ratio == pytest.approx(ratio, abs=1e-3 * ratio)


@pytest.mark.parametrize("a,q", [(100.0, 5.0), (4155.8, -6.04)])
def test_dominant_harmonic_ratio_is_converged_in_hills_window(
        monkeypatch, a, q):
    # doubling the window |n| <= HILL_ORDER + ceil(sqrt(|a| + 2|q|) / 2)
    # leaves the ratio unchanged; at (4155.8, -6.04) the dominant harmonic
    # is |n| = 32, outside a fixed |n| <= 25
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratio = monodromy_stability((a, q)).micromotion_ratio
        extra = int(np.ceil(np.sqrt(abs(a) + 2 * abs(q)) / 2))
        monkeypatch.setattr("optrap.mathieu_floquet.HILL_ORDER",
                            2 * HILL_ORDER + extra)
        wide = monodromy_stability((a, q)).micromotion_ratio
    assert np.isfinite(ratio)
    assert ratio == pytest.approx(wide, rel=1e-12)


def _count_integrations(monkeypatch):
    """Lists that record each mathieu_monodromy call and the nsteps of each
    RK8 kernel call the module makes."""
    from optrap import mathieu_floquet
    monodromies, kernel_steps = [], []
    monodromy, kernel = mathieu_floquet.mathieu_monodromy, rk8_oscillator

    def counted_monodromy(*args, **kwargs):
        monodromies.append(args)
        return monodromy(*args, **kwargs)

    def counted_kernel(accel, t0, h, nsteps, x0, v0):
        kernel_steps.append(nsteps)
        assert h * nsteps == pytest.approx(np.pi / 2, rel=1e-15)
        return kernel(accel, t0, h, nsteps, x0, v0)
    monkeypatch.setattr(mathieu_floquet, "mathieu_monodromy", counted_monodromy)
    monkeypatch.setattr(mathieu_floquet, "rk8_oscillator", counted_kernel)
    return monodromies, kernel_steps


@pytest.mark.parametrize("a,q,steps,stable", [
    (0.1, 0.3, None, True), (0.1, 0.3, 300, True), (40.0, 12.0, None, True),
    (0.0, 0.95, None, False), (1.0, 3.0, 50, False)])
def test_floquet_result_counts_its_integrations(monkeypatch, a, q, steps,
                                                stable):
    monodromies, kernel_steps = _count_integrations(monkeypatch)
    result = monodromy_stability((a, q), steps=steps)
    assert result.stable is stable
    assert result.monodromy_integrations == len(monodromies) == (
        2 if stable else 1)
    # each integration runs the two fundamental solutions on floats
    assert kernel_steps == [result.half_period_steps] * 2 * len(monodromies)
    if steps is not None:
        assert result.half_period_steps == steps


def test_analytic_floquet_result_integrates_nothing(monkeypatch):
    monodromies, kernel_steps = _count_integrations(monkeypatch)
    with pytest.warns(StiffnessWarning):
        result = monodromy_stability((1e-20, -5e-21))
    assert result.from_analytic_law
    assert (result.half_period_steps, result.monodromy_integrations) == (0, 0)
    assert monodromies == kernel_steps == []


@pytest.mark.parametrize("steps", [None, 7])
def test_stability_scan_records_its_step_count(monkeypatch, steps):
    _, kernel_steps = _count_integrations(monkeypatch)
    scan = stability_scan((0.0, 3.0), (0.0, 2.0), 0.5, steps=steps)
    assert kernel_steps == [scan.half_period_steps]    # one batched run
    # 40 steps per unit rate sqrt(max|a| + 2 max|q|) = sqrt(7): 105.8 -> 106
    assert scan.half_period_steps == (steps or 106)
