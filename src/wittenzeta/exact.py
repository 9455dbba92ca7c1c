"""Exact arithmetic backbone: Bernoulli numbers, exact zeta values at
non-positive integers, the Gamma ratio of the SU(3) limits there, and small
polynomial / rational-function algebra over arbitrary-precision rationals.

Rationals are ``fractions.Fraction`` throughout (always normalized, positive
denominator), so the only code here is what the closed forms and the p-adic
catalog actually need: univariate polynomials and reduced rational
functions. The gcd that reduces them runs over the integers.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# Bernoulli numbers and Riemann zeta at non-positive integers
# ---------------------------------------------------------------------------

_B_EVEN = [Fraction(1)]  # B_0, B_2, B_4, ...; doubled on demand


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k in the convention B_1 = -1/2; the even ones from
    the integer tangent numbers T_n of R. Brent and D. Harvey ("Fast
    computation of Bernoulli, tangent and secant numbers", 2011),
    B_2n = (-1)^{n-1} 2n T_n / (4^n (4^n - 1))."""
    if k < 0:
        raise ValueError("bernoulli: k must be non-negative")
    if k % 2:
        return Fraction(-1, 2) if k == 1 else Fraction(0)
    n = k // 2
    if n >= len(_B_EVEN):
        size = max(n, 2 * len(_B_EVEN))
        tan = [0, 1] + [0] * (size - 1)
        for j in range(2, size + 1):
            tan[j] = (j - 1) * tan[j - 1]
        for i in range(2, size + 1):
            for j in range(i, size + 1):
                tan[j] = (j - i) * tan[j - 1] + (j - i + 2) * tan[j]
        _B_EVEN[1:] = [Fraction((-1) ** (i - 1) * 2 * i * tan[i],
                                4 ** i * (4 ** i - 1)) for i in range(1, size + 1)]
    return _B_EVEN[n]


def zeta_neg_int(k: int) -> Fraction:
    """Exact zeta(-k) for k >= 0: zeta(0) = -1/2, zeta(-k) = -B_{k+1}/(k+1)."""
    if k < 0:
        raise ValueError("zeta_neg_int: k must be non-negative")
    if k == 0:
        return Fraction(-1, 2)
    return -bernoulli(k + 1) / (k + 1)


def gamma_ratio_at_neg(n: int) -> Fraction:
    """Exact limit of Gamma(2s-1)/Gamma(s) at s = -n for n >= 0."""
    if n < 0:
        raise ValueError("gamma_ratio_at_neg: n must be >= 0")
    return Fraction((-1) ** (n + 1) * math.factorial(n),
                    2 * math.factorial(2 * n + 1))


# ---------------------------------------------------------------------------
# Univariate polynomials over Fraction
# ---------------------------------------------------------------------------

def _as_fraction_list(coeffs):
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _primitive(coeffs) -> list:
    """The integer list with content 1 proportional to rational coeffs."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*ints) or 1
    return [c // g for c in ints]


def _pseudo_remainder(a: list, b: list) -> list:
    """A non-zero rational multiple of a mod b, for integer lists."""
    r, lead = list(a), b[-1]
    while len(r) >= len(b):
        g = math.gcd(r[-1], lead)
        x, y, shift = lead // g, r[-1] // g, len(r) - len(b)
        if x != 1:
            r = [x * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= y * c
        while r and r[-1] == 0:
            r.pop()
    return r


class Polynomial:
    """Dense univariate polynomial, coefficients ascending by degree.

    Immutable; the zero polynomial has an empty coefficient list.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs=(), var: str = "x"):
        object.__setattr__(self, "coeffs", tuple(_as_fraction_list(coeffs)))
        object.__setattr__(self, "var", var)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @classmethod
    def constant(cls, c, var="x"):
        return cls([Fraction(c)], var)

    @classmethod
    def variable(cls, var="x"):
        return cls([0, 1], var)

    def _check_var(self, other):
        if isinstance(other, Polynomial) and other.coeffs and self.coeffs \
                and other.var != self.var:
            raise ValueError(
                f"indeterminate mismatch: {self.var!r} vs {other.var!r}")

    def _var_of(self, other):
        if self.coeffs:
            return self.var
        if isinstance(other, Polynomial) and other.coeffs:
            return other.var
        return self.var

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.var)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_var(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)], self._var_of(other))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs], self.var)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_var(other)
        if self.is_zero() or other.is_zero():
            return Polynomial([], self._var_of(other))
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out, self._var_of(other))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a Polynomial; use RationalFunction")
        result = Polynomial.constant(1, self.var)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def divmod(self, other: "Polynomial"):
        """Euclidean division; raises ZeroDivisionError on zero divisor."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero polynomial")
        self._check_var(other)
        var = self._var_of(other)
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.leading()
        dd = other.degree
        while len(rem) - 1 >= dd and rem:
            shift = len(rem) - 1 - dd
            q = rem[-1] / dlead
            quot[shift] = q
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= q * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Polynomial(quot, var), Polynomial(rem, var)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic gcd, by a primitive remainder sequence over the integers:
        the gcd Euclid gives over the rationals, without its Fractions."""
        self._check_var(other)
        a, b = _primitive(self.coeffs), _primitive(other.coeffs)
        while b:
            a, b = b, _primitive(_pseudo_remainder(a, b))
        lead = a[-1] if a else 1
        return Polynomial([Fraction(c, lead) for c in a], self._var_of(other))

    def __call__(self, x):
        """Horner evaluation at an int or a Fraction."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.var)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its coefficient, so it hashes as one (0 as 0)
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*{self.var}" if c != 1 else self.var)
            else:
                parts.append(f"{c}*{self.var}^{i}" if c != 1 else f"{self.var}^{i}")
        return " + ".join(parts).replace("+ -", "- ")


class RationalFunction:
    """Quotient of two Polynomials, kept reduced with a monic denominator.
    Parts known to be coprime skip the gcd (``coprime=True``): so do the
    results of arithmetic with a polynomial or a nonzero constant."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1, var: str = "x", coprime: bool = False):
        if not isinstance(num, Polynomial):
            num = Polynomial.constant(num, var)
        if not isinstance(den, Polynomial):
            den = Polynomial.constant(den, num.var)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not coprime and (g := num.gcd(den)).degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.leading()
        object.__setattr__(self, "num", num * (1 / lead))
        object.__setattr__(self, "den", den * (1 / lead))

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    @property
    def var(self):
        return self.num.var if self.num.coeffs else self.den.var

    @classmethod
    def variable(cls, var="x"):
        return cls(Polynomial.variable(var), 1, var)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _is_unit(self) -> bool:  # a nonzero constant
        return self.num.degree == 0 == self.den.degree

    @staticmethod
    def _coerce(other, var):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (Polynomial, int, Fraction)):
            return RationalFunction(other, 1, var)
        return None

    def __add__(self, other):
        o = self._coerce(other, self.var)
        if o is None:
            return NotImplemented
        # with a polynomial q, (num + q den)/den is coprime as num/den is
        return RationalFunction(self.num * o.den + o.num * self.den,
                                self.den * o.den, coprime=0 in (
                                    self.den.degree, o.den.degree))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, coprime=True)

    def __sub__(self, other):
        o = self._coerce(other, self.var)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other, self.var)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den, coprime=(
            self._is_unit() or o._is_unit()))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other, self.var)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num, coprime=(
            self._is_unit() or o._is_unit()))

    def __rtruediv__(self, other):
        o = self._coerce(other, self.var)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RationalFunction(self.den, self.num) ** (-k)
        return RationalFunction(self.num ** k, self.den ** k)

    def __call__(self, x):
        den = self.den(x)
        if den == 0:
            raise ZeroDivisionError(f"pole of rational function at {x}")
        return self.num(x) / den

    def __eq__(self, other):
        o = self._coerce(other, self.var)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # over the monic denominator 1 it equals its numerator
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == Polynomial.constant(1, self.var):
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"

