import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.cyclotomic import (
    CertificationError,
    CycloField,
    MismatchedFieldError,
    cyclotomic_polynomial,
    euler_phi,
    sub_product,
    sum_of_products,
)

from oracles import binomial_k_operator_value, rational_value


def _reduce_mod_phi(coeffs, ell):
    cyc = cyclotomic_polynomial(ell)
    phi = len(cyc) - 1
    res = list(coeffs) + [Fraction(0)] * max(0, phi - len(coeffs))
    for k in range(len(res) - 1, phi - 1, -1):
        c = res[k]
        if c:
            for i, p in enumerate(cyc):
                res[k - phi + i] -= c * p
    return res[:phi]


def euclid_inverse(ell, coeffs):
    """Inverse of sum_i coeffs[i] zeta^i by rational extended Euclid against
    Phi_ell, as Fraction coefficients: the oracle for CyclotomicScalar.inverse."""
    r0 = [Fraction(c) for c in cyclotomic_polynomial(ell)]
    r1 = [Fraction(c) for c in coeffs]
    s0, s1 = [Fraction(0)], [Fraction(1)]

    def deg(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i]:
                return i
        return -1

    if deg(r1) < 0:
        raise ZeroDivisionError("inverse of zero")
    while deg(r1) > 0:
        d0, d1 = deg(r0), deg(r1)
        if d0 < d1:
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        c = r0[d0] / r1[d1]
        shift = d0 - d1
        for i in range(d1 + 1):
            r0[i + shift] -= c * r1[i]
        s1p = s1 + [Fraction(0)] * (shift + len(s0))
        s0 = s0 + [Fraction(0)] * (len(s1p) - len(s0))
        for i in range(len(s1)):
            s0[i + shift] -= c * s1p[i]
        r0, r1, s0, s1 = r1, r0, s1, s0
    if deg(r1) != 0:
        raise ZeroDivisionError("element shares a factor with Phi")
    return _reduce_mod_phi([c / r1[0] for c in s1], ell)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)


def test_euler_phi():
    assert [euler_phi(n) for n in (3, 5, 7, 9, 15)] == [2, 4, 6, 6, 8]


def test_root_of_unity_identities():
    for ell in (3, 5, 7, 9):
        F = CycloField(ell)
        z = F.zeta
        assert z * F.zeta_power(ell - 1) == F.one
        # Phi_ell(zeta) = 0 amounts to the reduction being canonical
        acc = F.zero
        for c, k in zip(cyclotomic_polynomial(ell), range(ell)):
            acc = acc + F.zeta_power(k) * F.scalar(c)
        assert acc.is_zero()


def test_sum_of_cube_roots():
    F = CycloField(3)
    assert F.zeta + F.zeta_power(2) == F.scalar(-1)


def test_field_inverse_example():
    F = CycloField(5)
    a = F.one + F.zeta
    assert a * a.inverse() == F.one


def test_inverse_of_zero_raises():
    F = CycloField(3)
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def test_mismatched_ell_raises():
    a = CycloField(3).one
    b = CycloField(5).one
    with pytest.raises(MismatchedFieldError):
        a + b


def test_invalid_ell():
    with pytest.raises(ValueError):
        CycloField(4)
    with pytest.raises(ValueError):
        CycloField(1)


def test_quantum_integers():
    for ell in (3, 5, 7):
        F = CycloField(ell)
        assert F.quantum_integer(1) == F.one
        assert F.quantum_integer(ell).is_zero()
        assert F.quantum_integer(-2) == -F.quantum_integer(2)


def test_quantum_binomial_by_brute_laurent_sum():
    # [4 choose 1] = [4] = z^3 + z + z^-1 + z^-3, evaluated exactly
    F = CycloField(3)
    brute = (
        F.zeta_power(3) + F.zeta_power(1) + F.zeta_power(-1) + F.zeta_power(-3)
    )
    assert F.quantum_binomial(4, 1) == brute == F.quantum_integer(4)


def test_quantum_binomial_bounds():
    F = CycloField(3)
    with pytest.raises(ValueError):
        F.quantum_binomial(3, -1)
    with pytest.raises(ValueError):
        F.quantum_binomial(2, 3)


def test_lucas_nonvanishing_below_ell():
    for ell in (3, 5, 7):
        F = CycloField(ell)
        for n in range(ell):
            for k in range(n + 1):
                assert not F.quantum_binomial(n, k).is_zero(), (ell, n, k)


def _scalars(ell):
    F = CycloField(ell)
    coeff = st.builds(
        Fraction,
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    return st.builds(
        lambda cs: F.from_coeffs(cs),
        st.lists(coeff, min_size=F.phi, max_size=F.phi),
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7, 9]).flatmap(lambda e: st.tuples(_scalars(e), _scalars(e), _scalars(e))))
def test_field_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == a.field.one


def test_binomial_k_operator_value_matches_lucas():
    # qbinom(m, t) at the root of unity for t < ell, via the operator formula
    F = CycloField(5)
    for m in range(0, 10):
        for t in range(1, 5):
            v = binomial_k_operator_value(F, m, 0, t)
            assert v == F.quantum_binomial(m, t) if m >= t else v is not None


def _in_normal_form(x):
    return x.den > 0 and gcd(x.den, *x.num) == 1 and len(x.num) == x.field.phi


def test_normal_form_invariants():
    for ell in (3, 5, 9):
        F = CycloField(ell)
        a = F.from_coeffs(["2/4"] + ["-6/8"] * (F.phi - 1))
        b = F.scalar("5/3") + F.zeta
        values = [a, b, a + b, a - b, a * b, b * b, -a, a.inverse(), b.inverse(),
                  F.scalar(Fraction(-3, -6)), F.scalar(-4), a - a, F.zero * b]
        assert all(_in_normal_form(x) for x in values)
        zeros = [a - a, F.zero * b, F.from_coeffs(["0/3"] * F.phi), a + (-a), F.scalar("0")]
        for z in zeros:
            assert z.num == (0,) * F.phi and z.den == 1 and z.is_zero()
        assert not b.is_zero()


def test_as_strings_match_fractions():
    rng = random.Random(5)
    for ell in (3, 5, 7, 15):
        F = CycloField(ell)
        for _ in range(20):
            x = F.from_coeffs([Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(F.phi)])
            x = x * F.from_coeffs([rng.randint(-3, 3) for _ in range(F.phi)])
            assert x.as_strings() == [str(Fraction(n, x.den)) for n in x.num]
            assert x.as_strings() == [str(c) for c in x.coeffs]
    F = CycloField(5)
    x = F.from_coeffs(["1/2", "-2/4", "3", "0"])
    assert x.as_strings() == ["1/2", "-1/2", "3", "0"]
    assert repr(x) == "1/2 + -1/2*z + 3*z^2"
    assert rational_value(x) is None
    assert rational_value(F.scalar("-6/4")) == Fraction(-3, 2)


def test_equal_values_are_equal_and_hash_alike():
    F = CycloField(5)
    pairs = [
        (F.scalar("2/4"), F.scalar("1/2")),
        (F.scalar(1) * F.scalar(2).inverse(), F.scalar(Fraction(1, 2))),
        (F.from_coeffs(["2/4", "-6/8", "0", "4/2"]), F.from_coeffs(["1/2", "-3/4", "0", "2"])),
        ((F.one + F.zeta) * (F.one + F.zeta).inverse(), F.one),
        (F.scalar("1/3") + F.scalar("2/3"), F.one),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
    assert F.scalar("1/2") != F.scalar("1/3")


def test_inverse_matches_extended_euclid():
    rng = random.Random(11)
    for ell in (3, 5, 7, 9, 15):
        F = CycloField(ell)
        for _ in range(25):
            coeffs = [Fraction(rng.randint(-7, 7), rng.randint(1, 9)) for _ in range(F.phi)]
            coeffs[rng.randrange(F.phi)] = Fraction(rng.choice((-5, -1, 1, 3)), rng.choice((2, 3, 4)))
            x = F.from_coeffs(coeffs)
            expected = euclid_inverse(ell, coeffs)
            assert x.inverse().coeffs == tuple(expected), (ell, coeffs)
            assert x * x.inverse() == F.one


def test_inverse_rejects_a_wrong_norm(monkeypatch):
    F = CycloField(5)
    x = F.one + F.scalar(2) * F.zeta
    monkeypatch.setattr(F, "_conjugations", F._conjugations[:-1])
    with pytest.raises(CertificationError):
        x.inverse()


def _kernel_scalars(F, rng):
    """Zero, rationals, irrationals, and scalars with mixed denominators."""
    out = [F.zero, F.one, F.scalar(-3), F.scalar("2/3"), F.zeta, F.scalar("5/4") * F.zeta_power(2)]
    for _ in range(4):
        out.append(F.from_coeffs([Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(F.phi)]))
    return out


def _same(got, want):
    """A kernel's result (None for zero) is the operators' scalar."""
    if want.is_zero():
        return got is None
    return (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_sub_product_matches_the_operators(ell):
    F = CycloField(ell)
    scalars = _kernel_scalars(F, random.Random(ell))
    for c in scalars:
        for v in scalars:
            # an absent t reads as zero; t = c*v cancels exactly
            assert _same(sub_product(None, c, v), F.zero - c * v)
            assert sub_product(c * v, c, v) is None
            for t in scalars:
                assert _same(sub_product(t, c, v), t - c * v)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_sum_of_products_matches_the_operators(ell):
    F = CycloField(ell)
    rng = random.Random(100 + ell)
    scalars = _kernel_scalars(F, rng)
    assert sum_of_products([]) is None
    for length in range(1, 6):
        for _ in range(30):
            pairs = [(rng.choice(scalars), rng.choice(scalars)) for _ in range(length)]
            want = F.zero
            for a, b in pairs:
                want = want + a * b
            assert _same(sum_of_products(pairs), want)
            # the same terms and their negatives cancel exactly
            assert sum_of_products(pairs + [(-a, b) for a, b in pairs]) is None


def test_fused_kernels_reject_mismatched_fields():
    a, b = CycloField(3).one, CycloField(5).one
    with pytest.raises(MismatchedFieldError):
        sub_product(a, a, b)
    with pytest.raises(MismatchedFieldError):
        sub_product(b, a, a)
    with pytest.raises(MismatchedFieldError):
        sum_of_products([(a, a), (b, b)])
