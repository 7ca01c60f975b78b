import pytest

from optrap.constants import CONST, PhysicalConstants


def test_pinned_values():
    c = CONST
    assert c.c == 299792458.0
    assert c.kB == 1.380649e-23
    assert c.e_charge == 1.602176634e-19
    assert c.hbar == pytest.approx(1.054571817e-34, rel=0)
    assert c.eps0 == pytest.approx(8.8541878128e-12, rel=0)
    assert c.m_electron == pytest.approx(9.1093837015e-31, rel=0)
    assert c.atomic_mass_unit == pytest.approx(1.66053906660e-27, rel=0)
    assert c.fine_structure_alpha == pytest.approx(7.2973525693e-3, rel=0)


def test_agrees_with_scipy_codata():
    # scipy may carry a newer adjustment; agreement to 1e-8 is enough to
    # catch transcription errors without pinning to scipy's tables
    from scipy import constants as sc
    c = CONST
    assert c.hbar == pytest.approx(sc.hbar, rel=1e-8)
    assert c.eps0 == pytest.approx(sc.epsilon_0, rel=1e-8)
    assert c.m_electron == pytest.approx(sc.m_e, rel=1e-8)
    assert c.atomic_mass_unit == pytest.approx(sc.atomic_mass, rel=1e-8)
    assert c.fine_structure_alpha == pytest.approx(sc.fine_structure, rel=1e-8)
    assert c.bohr_magneton == pytest.approx(
        sc.physical_constants["Bohr magneton"][0], rel=1e-8)


def test_immutable_and_positive():
    with pytest.raises(Exception):
        CONST.hbar = 1.0  # frozen dataclass
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=-1.0)


def test_derived_bohr_magneton():
    c = CONST
    assert c.bohr_magneton == c.e_charge * c.hbar / (2 * c.m_electron)
