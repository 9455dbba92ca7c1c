"""Witten L-functions over explicit finite character tables.

A ``CharacterTable`` holds the class sizes and irreducible characters of a
finite group with Gaussian-rational character values; ``finite_witten_L``
evaluates sum over irreps of chi(g)/deg * deg^{-s}, which at s = -2 counts
|G| on the identity class and vanishes elsewhere. Two built-in tables (S3
and Q8) anchor the test suite; further tables load from a line-oriented
text format.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

MAX_EXACT_S = 1000  # deg^{|s|+1} then prints in 4300 digits for deg < 19,000


class TableFormatError(DomainError):
    """A character-table file failed validation; message carries the line."""


@dataclass(frozen=True)
class GaussianRational:
    """Exact a + b*i with rational a, b."""

    re: Fraction
    im: Fraction = Fraction(0)

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

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

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


@dataclass(frozen=True)
class Irrep:
    degree: int
    chars: tuple  # GaussianRational per class, chars[identity] == degree


@dataclass(frozen=True)
class CharacterTable:
    name: str
    order: int
    class_sizes: tuple  # of int; class 0 is the identity class
    irreps: tuple  # of Irrep

    def __post_init__(self):
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
        # row orthogonality: sum_c |c| chi_i(c) conj(chi_j(c)) = |G| [i=j]
        for i, ri in enumerate(self.irreps):
            for j, rj in enumerate(self.irreps):
                acc = GaussianRational(Fraction(0))
                for size, a, b in zip(self.class_sizes, ri.chars, rj.chars):
                    acc = acc + size * (GaussianRational.of(a)
                                        * GaussianRational.of(b).conjugate())
                want = Fraction(self.order if i == j else 0)
                if acc.re != want or acc.im != 0:
                    raise TableFormatError(
                        f"{self.name}: row orthogonality fails for irreps "
                        f"{i} and {j}")

    @property
    def n_classes(self) -> int:
        return len(self.class_sizes)


def _gr(*vals):
    return tuple(GaussianRational.of(v) for v in vals)


S3 = CharacterTable(
    name="S3", order=6, class_sizes=(1, 3, 2),
    irreps=(
        Irrep(1, _gr(1, 1, 1)),
        Irrep(1, _gr(1, -1, 1)),
        Irrep(2, _gr(2, 0, -1)),
    ))

Q8 = CharacterTable(
    name="Q8", order=8, class_sizes=(1, 1, 2, 2, 2),
    irreps=(
        Irrep(1, _gr(1, 1, 1, 1, 1)),
        Irrep(1, _gr(1, 1, 1, -1, -1)),
        Irrep(1, _gr(1, 1, -1, 1, -1)),
        Irrep(1, _gr(1, 1, -1, -1, 1)),
        Irrep(2, _gr(2, -2, 0, 0, 0)),
    ))

BUILTIN_TABLES = {"S3": S3, "Q8": Q8}


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
    """Sum over irreps of chi(g)/deg * deg^{-s}; exact path at integer s."""
    s = complex(s)
    if s.imag == 0.0 and s.real == int(s.real):
        return complex(finite_witten_L_exact(table, int(s.real), class_index))
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
