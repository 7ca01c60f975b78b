"""Thermal occupation and charged-oscillator heating."""

import numpy as np
import pytest

from optrap import heating_rate, mean_occupation
from optrap.blackbody import larmor_emission_rate
from optrap.constants import CONST
from optrap.errors import FrequencyRangeWarning

from conftest import make_reference_setup

OMEGA_100KHZ = 2 * np.pi * 1e5


def test_mean_occupation_reference():
    nbar = mean_occupation(OMEGA_100KHZ, 300.0)
    # exact Bose factor; published order 1e8 at room temperature
    assert nbar == pytest.approx(6.251e7, rel=1e-3)
    assert 10 ** 7.5 < nbar < 10 ** 8.5
    assert mean_occupation(OMEGA_100KHZ, 0.0) == 0.0


def test_mean_occupation_rayleigh_jeans_expansion():
    # nbar = kBT/(hbar w) - 1/2 + O(x); deviation from the classical
    # limit is below 1e-7 relative at room temperature
    x = CONST.hbar * OMEGA_100KHZ / (CONST.kB * 300.0)
    nbar = mean_occupation(OMEGA_100KHZ, 300.0)
    classical = 1.0 / x
    assert abs(nbar - (classical - 0.5)) / classical < 1e-7
    assert abs(nbar - classical) / classical < 1e-7


def test_mean_occupation_decreasing_in_frequency():
    omegas = 2 * np.pi * np.logspace(3, 7, 17)
    values = [mean_occupation(w, 300.0) for w in omegas]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_heating_rate_reference(mg_setup):
    est = heating_rate(mg_setup, OMEGA_100KHZ)
    # hand evaluation of the Larmor chain at 2pi x 100 kHz, 300 K
    q = mg_setup.ion.total_charge
    mass = mg_setup.ion.total_mass
    larmor = q ** 2 * OMEGA_100KHZ ** 2 / (6 * np.pi * CONST.eps0 * mass
                                           * CONST.c ** 3)
    assert est.larmor_rate == pytest.approx(larmor, rel=1e-12)
    assert est.heating_rate == pytest.approx(3.535e-9, rel=1e-3)
    # within two decades of the published ~1e-7 Hz; discrepancy visible
    assert 1e-9 <= est.heating_rate <= 1e-5
    assert est.heating_rate < 1e-7  # the plain Larmor form sits low
    # "a few months" timescale to within two decades; ours exceeds 1e7 s
    assert est.heating_timescale > 1e7
    assert est.heating_timescale == pytest.approx(1 / est.heating_rate,
                                                  rel=1e-12)


def test_heating_rate_charge_squared(mg_setup):
    single = heating_rate(mg_setup, OMEGA_100KHZ)
    double = heating_rate(make_reference_setup(charge_e=2.0), OMEGA_100KHZ)
    assert double.heating_rate == pytest.approx(4 * single.heating_rate,
                                                rel=1e-14)


def test_heating_rate_linear_in_temperature_rj(mg_setup):
    hot = heating_rate(make_reference_setup(temperature=600.0), OMEGA_100KHZ)
    cold = heating_rate(mg_setup, OMEGA_100KHZ)
    assert hot.heating_rate / cold.heating_rate == pytest.approx(2.0,
                                                                 rel=1e-6)


def test_heating_rate_frequency_scaling(mg_setup):
    # Gamma' ~ w^2 nbar ~ w in the Rayleigh-Jeans regime
    one = heating_rate(mg_setup, OMEGA_100KHZ)
    two = heating_rate(mg_setup, 2 * OMEGA_100KHZ)
    assert two.heating_rate / one.heating_rate == pytest.approx(2.0, rel=1e-6)


def test_heating_rate_neutral_flag(neutral_setup):
    est = heating_rate(neutral_setup, OMEGA_100KHZ)
    assert est.heating_rate == 0.0
    assert est.heating_timescale == np.inf
    assert "neutral_particle" in est.flags


def test_heating_rate_out_of_range_flagged(mg_setup):
    with pytest.warns(FrequencyRangeWarning):
        est = heating_rate(mg_setup, 2 * np.pi * 1e3)
    assert "outside_recommended_frequency_range" in est.flags
    assert est.heating_rate > 0


def test_prefactor_multiplier(mg_setup):
    base = heating_rate(mg_setup, OMEGA_100KHZ)
    tripled = heating_rate(mg_setup, OMEGA_100KHZ, prefactor_multiplier=3.0)
    assert tripled.heating_rate == pytest.approx(3 * base.heating_rate,
                                                 rel=1e-14)
    assert larmor_emission_rate(1.0, 1.0, 1.0, prefactor_multiplier=2.0) \
        == 2 * larmor_emission_rate(1.0, 1.0, 1.0)
