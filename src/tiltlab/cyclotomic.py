"""Exact arithmetic in the cyclotomic field Q(zeta_ell), ell odd.

An element is a vector of phi(ell) integer numerators over one positive common
denominator, representing Q[x]/(Phi_ell(x)) with x mapped to zeta (the layout
of FLINT's fmpq_poly).  The pair is kept in normal form, gcd(den, *num) = 1, so
equal elements have equal numerators and denominators and zero is
((0, ..., 0), 1).  Phi_ell is monic, so reduction modulo Phi_ell stays in Z,
and inverses come from the norm and the Galois conjugates (Cohen, GTM 138,
sec. 4.3) with integer arithmetic only.  Quantum integers, factorials and
Gaussian binomials are computed as balanced Laurent polynomials in the quantum
parameter and only specialized at zeta after all cancellation has happened, so
[n choose k] never divides by a vanishing quantum factorial.

The hot loops of elimination and matrix products call two fused kernels
instead of the operators: `sub_product` (t - c*v) and `sum_of_products`
(sum of a*b).  They work on the integer numerators, build no scalar for an
intermediate product or partial sum, and normalize once per result.  A
rational factor scales the other factor; only a product of two irrational
scalars is convolved and reduced modulo Phi_ell.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, neg, sub


def euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    # integer coefficients, b monic-up-to-sign at the top
    a = list(a)
    q = [0] * max(1, len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if c == 0:
            continue
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        c //= lead
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficients of Phi_n, low degree first."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            if any(r[1:]) or r[0] != 0:
                raise ArithmeticError("cyclotomic division left a remainder")
            poly = q
    return tuple(poly)


class MismatchedFieldError(ValueError):
    """Raised when two scalars over different roots of unity are combined."""


class CertificationError(ArithmeticError):
    """An internal result failed its exact check: the program is wrong."""


class CycloField:
    """Arithmetic context for Q(zeta_ell).  One instance per ell; immutable."""

    _instances: dict = {}

    def __new__(cls, ell: int):
        if ell in cls._instances:
            return cls._instances[ell]
        if ell < 3 or ell % 2 == 0:
            raise ValueError(f"ell must be odd and >= 3, got {ell}")
        self = object.__new__(cls)
        self.ell = ell
        self.phi = euler_phi(ell)
        self._init_tables()
        cls._instances[ell] = self
        return self

    def _init_tables(self):
        phi = self.phi
        cyc = cyclotomic_polynomial(self.ell)
        # x^phi = -(cyc[0] + cyc[1] x + ...) since Phi_ell is monic; row k holds
        # the coefficients of x^(phi+k) mod Phi_ell
        rows = [[-c for c in cyc[:phi]]]
        for _ in range(phi - 2):
            prev = rows[-1]
            top = prev[-1]
            rows.append([top * rows[0][0]] + [prev[i - 1] + top * rows[0][i] for i in range(1, phi)])
        # sparse (degree, [(i, coefficient), ...]) pairs for _mul_num
        self._reduction = tuple(
            (phi + k, tuple((i, c) for i, c in enumerate(row) if c)) for k, row in enumerate(rows)
        )
        self.zero = CyclotomicScalar(self, (0,) * phi, 1)
        self.one = CyclotomicScalar(self, (1,) + (0,) * (phi - 1), 1)
        # zeta^k for k = 0..ell-1, reduced mod Phi_ell
        powers = [self.one]
        zeta = self.zeta = CyclotomicScalar(self, (0, 1) + (0,) * (phi - 2), 1)
        for _ in range(self.ell - 1):
            powers.append(powers[-1] * zeta)
        self._zeta_powers = powers
        # the automorphisms zeta -> zeta^k, k in (Z/ell)^x minus 1, each as the
        # sparse images of the basis vectors zeta^0 .. zeta^(phi-1)
        self._conjugations = tuple(
            tuple(
                tuple((j, c) for j, c in enumerate(powers[i * k % self.ell].num) if c)
                for i in range(phi)
            )
            for k in range(2, self.ell)
            if gcd(k, self.ell) == 1
        )
        self._qint_cache = {}
        self._qbinom_cache = {}
        self.qone_minus = self.zeta_power(1) - self.zeta_power(-1)  # zeta - zeta^-1
        self._qone_minus_inv = self.qone_minus.inverse()

    def __repr__(self):
        return f"CycloField(ell={self.ell})"

    def __reduce__(self):
        return (CycloField, (self.ell,))

    def scalar(self, value) -> "CyclotomicScalar":
        """Embed a rational (int, Fraction or 'a/b' string) into the field."""
        if isinstance(value, int):
            return CyclotomicScalar(self, (int(value),) + (0,) * (self.phi - 1), 1)
        q = Fraction(value)
        return CyclotomicScalar(self, (q.numerator,) + (0,) * (self.phi - 1), q.denominator)

    def from_coeffs(self, coeffs) -> "CyclotomicScalar":
        """The element sum_i coeffs[i] zeta^i; each coefficient as in `scalar`."""
        vals = [Fraction(c) for c in coeffs]
        if len(vals) != self.phi:
            raise ValueError(f"expected {self.phi} coefficients, got {len(vals)}")
        den = 1
        for q in vals:
            den = den * q.denominator // gcd(den, q.denominator)
        return _normalised(self, tuple(q.numerator * (den // q.denominator) for q in vals), den)

    def zeta_power(self, k: int) -> "CyclotomicScalar":
        return self._zeta_powers[k % self.ell]

    # -- quantum combinatorics ------------------------------------------

    def quantum_integer(self, n: int) -> "CyclotomicScalar":
        """[n] = (zeta^n - zeta^-n)/(zeta - zeta^-1), any integer n."""
        if n in self._qint_cache:
            return self._qint_cache[n]
        val = (self.zeta_power(n) - self.zeta_power(-n)) * self._qone_minus_inv
        self._qint_cache[n] = val
        return val

    def quantum_binomial(self, n: int, k: int) -> "CyclotomicScalar":
        """Gaussian binomial [n choose k] at zeta, 0 <= k <= n.

        Computed by exact division of balanced Laurent polynomials before
        specialization, so vanishing quantum factorials never appear in a
        denominator.
        """
        if k < 0 or k > n:
            raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
        key = (n, k)
        if key in self._qbinom_cache:
            return self._qbinom_cache[key]
        num_poly, num_off = _qfactorial_poly(n)
        d1, o1 = _qfactorial_poly(k)
        d2, o2 = _qfactorial_poly(n - k)
        den = _poly_mul(d1, d2)
        q, r = _poly_divmod(num_poly, den)
        if any(r):
            raise ArithmeticError("Gaussian binomial division not exact")
        offset = num_off - o1 - o2
        val = self._eval_laurent(q, offset)
        self._qbinom_cache[key] = val
        return val

    def quantum_factorial(self, n: int) -> "CyclotomicScalar":
        poly, off = _qfactorial_poly(n)
        return self._eval_laurent(poly, off)

    def _eval_laurent(self, coeffs, offset) -> "CyclotomicScalar":
        acc = self.zero
        for i, c in enumerate(coeffs):
            if c:
                acc = acc + self.zeta_power(offset + i) * self.scalar(c)
        return acc



@lru_cache(maxsize=None)
def _qint_poly(n: int):
    """[n] as balanced Laurent polynomial: (coeffs, lowest exponent)."""
    if n == 0:
        return ((0,), 0)
    return (tuple([1, 0] * (n - 1) + [1]), 1 - n)


@lru_cache(maxsize=None)
def _qfactorial_poly(n: int):
    if n <= 1:
        return ((1,), 0)
    prev, poff = _qfactorial_poly(n - 1)
    cur, coff = _qint_poly(n)
    return (tuple(_poly_mul(list(prev), list(cur))), poff + coff)


def _mul_num(field, a, b):
    """Numerators of the product of two numerator vectors, reduced mod Phi_ell."""
    raw = [0] * (2 * field.phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    raw[j] += x * y
    out = raw[: field.phi]
    for k, row in field._reduction:
        c = raw[k]
        if c:
            for i, r in row:
                out[i] += c * r
    return tuple(out)


def _normalised(field, num, den):
    """The scalar num/den (den nonzero), with the common factor divided out."""
    if den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = tuple(n // g for n in num)
            den //= g
    return CyclotomicScalar(field, num, den)


def _product_num(field, a, b):
    """Numerators of the product of two numerator vectors.  Most products in
    the elimination and tensor layers have a rational (often zero) factor,
    which scales the other one; only an irrational pair is convolved."""
    if not any(a[1:]):
        x = a[0]
        return [x * y for y in b]
    if not any(b[1:]):
        y = b[0]
        return [x * y for x in a]
    return _mul_num(field, a, b)


def sub_product(t, c, v):
    """t - c*v in normal form, or None when it is zero; t None reads as zero.

    The fused step of elimination: the product stays a numerator vector over
    c.den * v.den, and only the difference is normalized.
    """
    field = c.field
    if v.field is not field or (t is not None and t.field is not field):
        raise MismatchedFieldError("scalars over different fields")
    pn = _product_num(field, c.num, v.num)
    pd = c.den * v.den
    if t is None:
        num, den = [-x for x in pn], pd
    elif t.den == pd:
        num, den = list(map(sub, t.num, pn)), pd
    else:
        td = t.den
        num, den = [x * pd - y * td for x, y in zip(t.num, pn)], td * pd
    if not any(num):
        return None
    return _normalised(field, tuple(num), den)


def sum_of_products(pairs):
    """sum of a*b over the (a, b) pairs in normal form, or None when it is zero.

    Products are added as numerator vectors over the least common
    denominator so far, and the sum is normalized once.
    """
    acc = None
    for a, b in pairs:
        if acc is None:
            field = a.field
        if a.field is not field or b.field is not field:
            raise MismatchedFieldError("scalars over different fields")
        pn, pd = _product_num(field, a.num, b.num), a.den * b.den
        if acc is None:
            acc, den = pn, pd
        elif pd == den:
            acc = list(map(add, acc, pn))
        else:
            g = gcd(den, pd)
            s, r = pd // g, den // g
            acc = [x * s + y * r for x, y in zip(acc, pn)]
            den *= s
    if acc is None or not any(acc):
        return None
    return _normalised(field, tuple(acc), den)


class CyclotomicScalar:
    """Immutable element of Q(zeta_ell): sum_i num[i] zeta^i / den, in normal form.

    The constructor trusts its arguments; build scalars through the field
    (`zero`, `one`, `scalar`, `from_coeffs`) or by arithmetic.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den

    def __add__(self, other):
        field = self.field
        if field is not other.field:
            raise MismatchedFieldError(f"scalars over ell={field.ell} and ell={other.field.ell}")
        # accumulators start at field.zero (Laurent evaluation, trace sums);
        # a sum with a zero term returns the other term without arithmetic
        if not any(other.num):
            return self
        if not any(self.num):
            return other
        d, e = self.den, other.den
        if d == e:
            num = tuple(map(add, self.num, other.num))
            return CyclotomicScalar(field, num, 1) if d == 1 else _normalised(field, num, d)
        return _normalised(field, tuple(x * e + y * d for x, y in zip(self.num, other.num)), d * e)

    def __sub__(self, other):
        field = self.field
        if field is not other.field:
            raise MismatchedFieldError(f"scalars over ell={field.ell} and ell={other.field.ell}")
        if not any(other.num):
            return self
        d, e = self.den, other.den
        if d == e:
            num = tuple(map(sub, self.num, other.num))
            return CyclotomicScalar(field, num, 1) if d == 1 else _normalised(field, num, d)
        return _normalised(field, tuple(x * e - y * d for x, y in zip(self.num, other.num)), d * e)

    def __neg__(self):
        return CyclotomicScalar(self.field, tuple(map(neg, self.num)), self.den)

    def __mul__(self, other):
        field = self.field
        if field is not other.field:
            raise MismatchedFieldError(f"scalars over ell={field.ell} and ell={other.field.ell}")
        num = tuple(_product_num(field, self.num, other.num))
        den = self.den * other.den
        return CyclotomicScalar(field, num, 1) if den == 1 else _normalised(field, num, den)

    def inverse(self) -> "CyclotomicScalar":
        """Field inverse: den * prod_{sigma != 1} sigma(num) / N(num).

        N(num), the product of all Galois conjugates of num, is a nonzero
        integer; anything else means the kernel itself is wrong.
        """
        num, field = self.num, self.field
        if not any(num):
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        if not any(num[1:]):
            return _normalised(field, (self.den,) + num[1:], num[0])
        phi = field.phi
        adj = None  # product of the conjugates other than num itself
        for images in field._conjugations:
            conj = [0] * phi
            for n, image in zip(num, images):
                if n:
                    for j, c in image:
                        conj[j] += n * c
            adj = conj if adj is None else _mul_num(field, adj, conj)
        norm = _mul_num(field, num, adj)
        if any(norm[1:]) or not norm[0]:
            raise CertificationError(f"norm of {self!r} is not a nonzero rational: {norm}")
        return _normalised(field, tuple(self.den * c for c in adj), norm[0])

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other):
        if not isinstance(other, CyclotomicScalar):
            return NotImplemented
        return self.field is other.field and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.field.ell, self.num, self.den))

    @property
    def coeffs(self):
        """The coefficients on zeta^0 .. zeta^(phi-1) as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.as_strings()):
            if c != "0":
                if i == 0:
                    terms.append(c)
                elif i == 1:
                    terms.append(f"{c}*z")
                else:
                    terms.append(f"{c}*z^{i}")
        return " + ".join(terms) if terms else "0"

    def as_strings(self):
        """Each coefficient as 'a/b' in lowest terms, or 'a' when it is an integer."""
        den = self.den
        if den == 1:
            return [str(n) for n in self.num]
        out = []
        for n in self.num:
            g = gcd(n, den)
            out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return out
