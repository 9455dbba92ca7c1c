"""Exact arithmetic backbone: Bernoulli numbers, exact zeta values at
non-positive integers, and small polynomial / rational-function algebra over
arbitrary-precision rationals.

Rationals are ``fractions.Fraction`` throughout (always normalized, positive
denominator), so the only code here is what the closed forms and the p-adic
catalog actually need: univariate polynomials, reduced rational functions,
and a sparse two-variable Laurent polynomial for identity checks.
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# Univariate polynomials over Fraction
# ---------------------------------------------------------------------------

def _as_fraction_list(coeffs):
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


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
            base = base * base
            k >>= 1
        return result

    def divmod(self, other: "Polynomial"):
        """Euclidean division; raises ZeroDivisionError on zero divisor."""
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.var)
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

    def div_exact(self, other: "Polynomial") -> "Polynomial":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("div_exact: non-zero remainder")
        return q

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic gcd via the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a * (1 / a.leading())

    # -- evaluation / composition ------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for Fraction input, float/complex otherwise."""
        acc = 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + (c if not isinstance(x, (float, complex)) else
                             (float(c) if isinstance(x, float) else complex(c)))
        return acc

    def compose(self, other: "Polynomial") -> "Polynomial":
        acc = Polynomial([], other.var)
        for c in reversed(self.coeffs):
            acc = acc * other + c
        return acc

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.var)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
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
    """Quotient of two Polynomials, kept reduced with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1, var: str = "x"):
        if not isinstance(num, Polynomial):
            num = Polynomial.constant(num, var) if isinstance(num, (int, Fraction)) \
                else Polynomial(num, var)
        if not isinstance(den, Polynomial):
            den = Polynomial.constant(den, num.var) if isinstance(den, (int, Fraction)) \
                else Polynomial(den, num.var)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num = num.div_exact(g)
            den = den.div_exact(g)
        self._store(num, den)

    def _store(self, num: Polynomial, den: Polynomial) -> None:
        lead = den.leading()
        object.__setattr__(self, "num", num * (1 / lead))
        object.__setattr__(self, "den", den * (1 / lead))

    @classmethod
    def coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num/den for parts known to have no common factor: no gcd."""
        out = object.__new__(cls)
        out._store(num, den)
        return out

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

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        if self.num.is_zero():
            return Fraction(0)
        return self.num.coeffs[0] / self.den.coeffs[0]

    @staticmethod
    def _coerce(other, var):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other, 1, other.var)
        if isinstance(other, (int, Fraction)):
            return RationalFunction(Polynomial.constant(other, var), 1, var)
        return None

    def __add__(self, other):
        o = self._coerce(other, self.var)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den,
                                self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

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
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other, self.var)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

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
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == Polynomial.constant(1, self.var):
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


# ---------------------------------------------------------------------------
# Sparse Laurent polynomials in two variables
# ---------------------------------------------------------------------------

class LaurentPoly2:
    """Sparse Laurent polynomial in two variables (P, U) over Fraction.

    Terms map (i, j) in Z^2 to a non-zero coefficient; used for the exact
    two-variable factorization identities of the p-adic catalog, where P
    stands for p and U for p^{-s}.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                clean[(int(key[0]), int(key[1]))] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly2 is immutable")

    @classmethod
    def monomial(cls, i: int, j: int, c=1):
        return cls({(i, j): c})

    @classmethod
    def one(cls):
        return cls.monomial(0, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly2.monomial(0, 0, other)
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return LaurentPoly2(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly2({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly2.monomial(0, 0, other)
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPoly2({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return LaurentPoly2(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms):
            c = self.terms[(i, j)]
            parts.append(f"{c}*P^{i}*U^{j}")
        return " + ".join(parts)


def fraction_str(q: Fraction) -> str:
    """Serialize a Fraction as "num/den" (plain integer when den == 1)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
