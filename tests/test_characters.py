import pytest

from tiltlab.characters import (
    Character,
    decompose_into_weyl,
    is_nonneg_weyl_sum,
    weyl_character,
)


def test_weyl_character_shape():
    assert weyl_character(0).coeffs == {0: 1}
    assert weyl_character(2).coeffs == {2: 1, 0: 1, -2: 1}
    assert weyl_character(-1).is_zero()
    # reflection rule below -1
    assert weyl_character(-3).coeffs == {w: -m for w, m in weyl_character(1).coeffs.items()}


def test_clebsch_gordan():
    # chi(1) * chi(1) = chi(2) + chi(0)
    prod = weyl_character(1) * weyl_character(1)
    assert decompose_into_weyl(prod) == {2: 1, 0: 1}
    prod2 = weyl_character(3) * weyl_character(1)
    assert decompose_into_weyl(prod2) == {4: 1, 2: 1}


def test_dimension_and_reflection():
    ch = weyl_character(3)
    assert ch.dimension() == 4
    assert ch.reflect() == ch
    asym = Character({3: 1, -3: 1, 1: 1})
    assert not asym.is_symmetric()
    with pytest.raises(ValueError):
        decompose_into_weyl(asym)


def test_nonneg_weyl_sum():
    assert is_nonneg_weyl_sum(weyl_character(3) + weyl_character(1))
    # character of L(3) at ell=3: x^3 + x^-3 is symmetric but not a nonneg sum
    assert not is_nonneg_weyl_sum(Character({3: 1, -3: 1}))


def weight_list(ch):
    """All weights with multiplicity, descending."""
    out = []
    for w in sorted(ch.coeffs, reverse=True):
        out.extend([w] * ch.coeffs[w])
    return out


def test_weight_list():
    ch = weyl_character(2) + weyl_character(0)
    assert weight_list(ch) == [2, 0, 0, -2]
