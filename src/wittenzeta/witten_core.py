"""Witten L-functions over explicit finite character tables.

A ``CharacterTable`` holds the class sizes and irreducible characters of a
finite group with Gaussian-rational character values; ``finite_witten_L``
evaluates sum over irreps of chi(g)/deg * deg^{-s}, which at s = -2 counts
|G| on the identity class and vanishes elsewhere. Tables load from a
line-oriented text format. Two built-in tables, ``S3`` and ``Q8`` (also
``BUILTIN_TABLES[name]``), anchor the test suite; they are kept in that
format and parsed and checked, row orthogonality included, when this
module runs: on its first use (see the package docstring).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import DomainError
from .numerics import read_s

MAX_EXACT_S = 1000  # deg^{|s|+1} then prints in 4300 digits for deg < 19,000


class TableFormatError(DomainError):
    """A character-table file failed validation; message carries the line."""


class GaussianRational:
    """Exact a + b*i with rational a, b; immutable, as it is hashed."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction = Fraction(0)):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(Fraction(x))

    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __mul__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def parse_gaussian(token: str) -> GaussianRational:
    """Parse 'a/b+c/di' style Gaussian rationals ('2', '-1/2', '1+1i', '2i')."""
    t = token.strip()
    try:
        if not t:
            raise ValueError("empty token")
        if not t.endswith("i"):
            return GaussianRational(Fraction(t))
        body = t[:-1]
        # split off a real part at the last sign not in leading position
        re_str, im_str = "", body
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-":
                re_str, im_str = body[:k], body[k:]
                break
        re_part = Fraction(re_str) if re_str else Fraction(0)
        if im_str in ("", "+"):
            im_part = Fraction(1)
        elif im_str == "-":
            im_part = Fraction(-1)
        else:
            im_part = Fraction(im_str)
        return GaussianRational(re_part, im_part)
    except (ValueError, ZeroDivisionError):
        raise TableFormatError(
            f"cannot parse Gaussian rational {token!r}") from None


class Irrep:
    __slots__ = ("degree", "chars")

    def __init__(self, degree: int, chars: tuple):
        # a GaussianRational per class, chars[identity] == degree
        self.degree, self.chars = degree, chars


class CharacterTable:
    """A finite group's class sizes (class 0 the identity) and irreps,
    checked on construction: the order, the degrees and row
    orthogonality."""

    __slots__ = ("name", "order", "class_sizes", "irreps")

    def __init__(self, name: str, order: int, class_sizes: tuple,
                 irreps: tuple):
        self.name, self.order = name, order
        self.class_sizes, self.irreps = class_sizes, irreps
        if sum(self.class_sizes) != self.order:
            raise TableFormatError(
                f"{self.name}: class sizes sum to {sum(self.class_sizes)}, "
                f"not the group order {self.order}")
        if self.class_sizes[0] != 1:
            raise TableFormatError(
                f"{self.name}: first class must be the identity (size 1)")
        if sum(r.degree ** 2 for r in self.irreps) != self.order:
            raise TableFormatError(
                f"{self.name}: sum of squared degrees != group order")
        for r in self.irreps:
            if len(r.chars) != len(self.class_sizes):
                raise TableFormatError(
                    f"{self.name}: irrep of degree {r.degree} has "
                    f"{len(r.chars)} character values, expected "
                    f"{len(self.class_sizes)}")
            if GaussianRational.of(r.chars[0]).re != r.degree \
                    or GaussianRational.of(r.chars[0]).im != 0:
                raise TableFormatError(
                    f"{self.name}: character at the identity must equal the "
                    f"degree {r.degree}")
        # row orthogonality: sum_c |c| chi_i(c) conj(chi_j(c)) = |G| [i=j],
        # in Gaussian integers: each value times the lcm d of the
        # denominators, so a sum is d^2 times the rational one; the sum for
        # (j, i) is the conjugate of the one for (i, j)
        vals = [[GaussianRational.of(x) for x in r.chars] for r in irreps]
        d = math.lcm(*(x.denominator for row in vals for v in row
                       for x in (v.re, v.im)))
        rows = [[(int(v.re * d), int(v.im * d)) for v in row] for row in vals]
        for i, ri in enumerate(rows):
            for j in range(i, len(rows)):
                re = im = 0
                for size, (a, b), (c, e) in zip(class_sizes, ri, rows[j]):
                    re += size * (a * c + b * e)
                    im += size * (b * c - a * e)
                if re != (order * d * d if i == j else 0) or im:
                    raise TableFormatError(
                        f"{self.name}: row orthogonality fails for irreps "
                        f"{i} and {j}")

    @property
    def n_classes(self) -> int:
        return len(self.class_sizes)


# ---------------------------------------------------------------------------
# Table file parsing
# ---------------------------------------------------------------------------

def parse_table(text: str) -> CharacterTable:
    """Parse the line-oriented character-table format.

    ``group <name> <order>``, then ``classes <size ...>``, then one
    ``irrep <degree> <chi ...>`` line per irreducible; blank lines and
    ``#`` comments are skipped. Malformed input raises TableFormatError
    with a 1-based line number.
    """
    name = None
    order = None
    sizes = None
    irreps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "group":
                if len(parts) != 3:
                    raise TableFormatError("expected: group <name> <order>")
                name, order = parts[1], int(parts[2])
            elif kind == "classes":
                sizes = tuple(int(t) for t in parts[1:])
                if not sizes or any(c <= 0 for c in sizes):
                    raise TableFormatError("class sizes must be positive")
            elif kind == "irrep":
                if len(parts) < 3:
                    raise TableFormatError("expected: irrep <degree> <chi ...>")
                degree = int(parts[1])
                chars = tuple(parse_gaussian(t) for t in parts[2:])
                irreps.append(Irrep(degree, chars))
            else:
                raise TableFormatError(f"unknown directive {kind!r}")
        except (ValueError, TableFormatError) as exc:
            raise TableFormatError(f"line {lineno}: {exc}") from None
    if name is None or sizes is None or not irreps:
        raise TableFormatError(
            "table must contain group, classes, and irrep lines")
    return CharacterTable(name=name, order=order, class_sizes=sizes,
                          irreps=tuple(irreps))


def load_table(path: str) -> CharacterTable:
    with open(path, encoding="utf-8") as fh:
        return parse_table(fh.read())


# the built-in tables, kept in the table-file format
S3 = parse_table("""group S3 6
                    classes 1 3 2
                    irrep 1 1 1 1
                    irrep 1 1 -1 1
                    irrep 2 2 0 -1""")
Q8 = parse_table("""group Q8 8
                    classes 1 1 2 2 2
                    irrep 1 1 1 1 1 1
                    irrep 1 1 1 1 -1 -1
                    irrep 1 1 1 -1 1 -1
                    irrep 1 1 1 -1 -1 1
                    irrep 2 2 -2 0 0 0""")
BUILTIN_TABLES = {"S3": S3, "Q8": Q8}


# ---------------------------------------------------------------------------
# Witten L-function over a table
# ---------------------------------------------------------------------------

def finite_witten_L_exact(table: CharacterTable, s: int,
                          class_index: int) -> GaussianRational:
    """Exact sum over irreps of chi(g) * deg^{-s-1} for integer s,
    |s| <= MAX_EXACT_S."""
    if not 0 <= class_index < table.n_classes:
        raise DomainError(f"class index {class_index} out of range")
    if abs(s) > MAX_EXACT_S:
        raise DomainError(f"exact evaluation requires |s| <= {MAX_EXACT_S}")
    acc = GaussianRational(Fraction(0))
    for r in table.irreps:
        weight = Fraction(r.degree) ** (-s - 1)
        acc = acc + weight * GaussianRational.of(r.chars[class_index])
    return acc


def finite_witten_L(table: CharacterTable, s: complex,
                    class_index: int) -> complex:
    """Sum over irreps of chi(g)/deg * deg^{-s} in floating point, integer s
    too; DomainError for a non-finite s or a deg^{-s-1} past a double."""
    s = read_s(s)
    if not 0 <= class_index < table.n_classes:
        raise DomainError(f"class index {class_index} out of range")
    acc = 0.0 + 0.0j
    try:
        for r in table.irreps:
            acc += complex(GaussianRational.of(r.chars[class_index])) \
                * cmath.exp(-(s + 1.0) * cmath.log(r.degree))
    except OverflowError:
        raise DomainError(
            f"deg^(-s-1) overflows a float at s={s}") from None
    return acc


def haar_average_finite(table: CharacterTable, s: complex) -> complex:
    """(1/|G|) sum over classes of size * finite_witten_L; equals 1 for all s
    by column orthogonality against the trivial class function."""
    acc = 0.0 + 0.0j
    for c in range(table.n_classes):
        acc += table.class_sizes[c] * finite_witten_L(table, s, c)
    return acc / table.order
